package nn

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/metrics"
	"strings"
	"testing"
)

// saved returns a network's Save bytes.
func saved(tb testing.TB, n *Network) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fixtureCNN uses every layer kind: conv, ReLU, max pooling, sigmoid
// and dense.
func fixtureCNN(rng *rand.Rand) *Network {
	conv := NewConv2D(1, 8, 8, 2, 3, 1, rng) // -> 2×6×6
	pool := NewMaxPool2D(2, conv.OutH(), conv.OutW(), 2, 2)
	return &Network{Layers: []Layer{
		conv, NewReLU(conv.OutputSize()), pool,
		NewSigmoid(pool.OutputSize()), NewDense(pool.OutputSize(), 3, rng),
	}}
}

// TestLoadRejectsInconsistentShapes holds Load to the shapes a model
// declares: each case is a saved fixture with one field damaged.
func TestLoadRejectsInconsistentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mlp := string(saved(t, NewMLP(MLPConfig{In: 4, Hidden: []int{3}, Classes: 2}, rng)))
	cnn := string(saved(t, fixtureCNN(rng)))
	for _, c := range []struct{ name, in, want string }{
		{"negative relu", `{"format":1,"layers":[{"kind":"relu","size":-5}]}`, "size out of range"},
		{"huge relu", `{"format":1,"layers":[{"kind":"relu","size":100000000000}]}`, "size out of range"},
		{"zero stride", `{"format":1,"layers":[{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":2,"s":0}]}`, "dimension out of range"},
		{"window wider than input", `{"format":1,"layers":[{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":5,"s":1}]}`, "dimension out of range"},
		{"no layers", `{"format":1,"layers":[]}`, "no layers"},
		{"relu after dense", strings.Replace(mlp, `"size":3`, `"size":4`, 1), "layer 1 takes 4 inputs, layer 0 gives 3"},
		{"dense weights", strings.Replace(mlp, `"in":4`, `"in":5`, 1), "inconsistent shapes"},
		{"conv weights", strings.Replace(cnn, `"out_c":2`, `"out_c":3`, 1), "inconsistent shapes"},
		{"pool after relu", strings.Replace(cnn, `"in_h":6`, `"in_h":7`, 1), "layer 2 takes"},
		{"overflowing dense", `{"format":1,"layers":[{"kind":"dense","in":4611686018427387904,"out":4,"b":[0,0,0,0]}]}`, "dimension out of range"},
	} {
		if _, err := Load(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for _, in := range []string{mlp, cnn} {
		if _, err := Load(strings.NewReader(in)); err != nil {
			t.Fatalf("saved fixture refused: %v", err)
		}
	}
}

// FuzzModelDecode feeds arbitrary bytes to Load, which decodes model
// JSON from outside the program. Every input is refused with an error
// or accepted, none panics, and an accepted one is an exact Save round
// trip: what Save writes of it loads again and saves to the same bytes.
// Load allocates no more than a constant plus a fixed multiple of the
// input's length, so a declared shape sizes nothing it does not carry.
// The corpus starts from the Save outputs of an MLP and of a CNN with
// every layer kind, and from a negative, a huge and a zero-stride shape.
func FuzzModelDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(saved(f, NewMLP(MLPConfig{In: 6, Hidden: []int{4}, Classes: 3}, rng)))
	f.Add(saved(f, fixtureCNN(rng)))
	f.Add([]byte(`{"format":1,"layers":[{"kind":"relu","size":-5}]}`))
	f.Add([]byte(`{"format":1,"layers":[{"kind":"relu","size":100000000000}]}`))
	f.Add([]byte(`{"format":1,"layers":[{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":2,"s":0}]}`))
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The heap counter is the process's, and the fuzzing engine's own
		// goroutines allocate beside Load now and then: the least of
		// three loads is Load's.
		var net *Network
		var err error
		grew := uint64(math.MaxUint64)
		for range 3 {
			before := allocated()
			net, err = Load(bytes.NewReader(b))
			grew = min(grew, allocated()-before)
		}
		// The decoder's buffer and the growth of each weight slice are
		// the multiple; reflection's type caches the constant.
		if bound := uint64(1<<16 + 64*len(b)); grew > bound {
			t.Fatalf("a %d-byte model allocated %d bytes (bound %d)", len(b), grew, bound)
		}
		if err != nil {
			return
		}
		first := saved(t, net)
		again, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("Save output of an accepted model refused: %v", err)
		}
		if second := saved(t, again); !bytes.Equal(first, second) {
			t.Fatalf("Save round trip differs:\n%s\n%s", first, second)
		}
	})
}
