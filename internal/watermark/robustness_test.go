package watermark

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"zkrownn/internal/dataset"
	"zkrownn/internal/nn"
)

// The paper inherits DeepSigns' robustness claims: the watermark
// survives parameter pruning, task fine-tuning, and watermark
// overwriting. These tests reproduce those attacks on the substrate.

// embeddedFixture returns a watermarked model and its training data.
func embeddedFixture(t *testing.T, seed int64) (*nn.Network, *Key, [][]float64, []int, *rand.Rand) {
	t.Helper()
	net, ds, key, rng := trainedSetup(t, seed)
	cfg := DefaultEmbedConfig()
	cfg.Epochs = 80
	if err := Embed(net, key, ds.X, ds.Y, cfg, rng); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return net, key, ds.X, ds.Y, rng
}

// TestEmbedReportsNonConvergence pins Embed's error at a seed whose
// budgets run out with bits wrong: at seed 602 five of the 16 bits stay
// wrong at every budget tried (epochs 80–200, polish 400–2000), with 16
// of the 24 hidden units dead past the ReLU on the triggers.
func TestEmbedReportsNonConvergence(t *testing.T) {
	net, ds, key, rng := trainedSetup(t, 602)
	cfg := DefaultEmbedConfig()
	cfg.Epochs = 80
	err := Embed(net, key, ds.X, ds.Y, cfg, rng)
	if err == nil || !strings.Contains(err.Error(), "BER 0.3125 (5 of 16 bits wrong)") {
		t.Fatalf("Embed at seed 602: err = %v, want the BER 0.3125 error", err)
	}
	if _, ber := Extract(net, key); ber != 0.3125 {
		t.Fatalf("after the error the model extracts at BER %v, want the reported 0.3125", ber)
	}
	dead := 0
	for _, m := range meanActivation(net, key) {
		if m == 0 {
			dead++
		}
	}
	if dead != 16 {
		t.Fatalf("%d of 24 trigger-mean units are 0 past the ReLU, want 16", dead)
	}
}

// pruneNetwork zeroes the fraction of smallest-magnitude weights in
// every parameterized layer (standard magnitude pruning).
func pruneNetwork(net *nn.Network, frac float64) {
	for _, l := range net.Layers {
		params := l.Params()
		if len(params) == 0 {
			continue
		}
		w := params[0] // weights (biases spared, as usual)
		mags := make([]float64, len(w))
		for i, v := range w {
			mags[i] = math.Abs(v)
		}
		sort.Float64s(mags)
		cut := mags[int(frac*float64(len(mags)))]
		for i := range w {
			if math.Abs(w[i]) <= cut {
				w[i] = 0
			}
		}
	}
}

func TestWatermarkSurvivesPruning(t *testing.T) {
	net, key, _, _, _ := embeddedFixture(t, 600)
	// Exact survival at moderate pruning; graceful degradation at 30%.
	// (DeepSigns reports exact survival at much higher rates on its
	// 512-wide layers; this fixture's 24-unit layer concentrates far
	// more signal per weight.)
	for _, tc := range []struct {
		frac   float64
		maxBER float64
	}{{0.1, 0}, {0.2, 0}, {0.3, 0.1}} {
		clone := cloneNet(t, net)
		pruneNetwork(clone, tc.frac)
		_, ber := Extract(clone, key)
		if ber > tc.maxBER {
			t.Fatalf("watermark lost after %.0f%% pruning (BER %.3f > %.3f)",
				tc.frac*100, ber, tc.maxBER)
		}
	}
}

func TestWatermarkSurvivesFineTuning(t *testing.T) {
	net, key, xs, ys, rng := embeddedFixture(t, 601)
	// A few epochs of plain task training (a removal attempt).
	net.Train(xs, ys, nn.TrainConfig{Epochs: 5, BatchSize: 16, LearningRate: 0.02, Silent: true}, rng)
	_, ber := Extract(net, key)
	if ber > 0.1 {
		t.Fatalf("watermark destroyed by light fine-tuning (BER %.3f)", ber)
	}
}

// TestWatermarkSurvivesOverwriting: an attacker embeds their own
// 16-bit watermark with a fresh key at the owner's layer. The owner's
// mark survives because distinct random projections are nearly
// orthogonal, which needs a layer much wider than the two signatures:
// DeepSigns' layers are 512 wide, and at trainedSetup's 24 units the
// overwrite destroys the owner's mark on most seeds. So the fixture is
// 128 units wide, and the property is read over ten seeds, against
// the 0.5 BER of a key the model never carried: the owner's mean BER
// after the overwrite is at most 0.15, and no seed reaches chance.
func TestWatermarkSurvivesOverwriting(t *testing.T) {
	const width, seeds = 128, 10
	var sum float64
	for seed := int64(602); seed < 602+seeds; seed++ {
		ds, err := dataset.Generate(dataset.Config{Samples: 300, Dim: 16, Classes: 3, ClusterStd: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		net := nn.NewMLP(nn.MLPConfig{In: 16, Hidden: []int{width}, Classes: 3}, rng)
		net.Train(ds.X, ds.Y, nn.TrainConfig{Epochs: 10, BatchSize: 16, LearningRate: 0.1, Silent: true}, rng)
		key, err := GenerateKey(rng, 1, 0, width, 16, 5, ds.OfClass(0))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultEmbedConfig()
		cfg.Epochs = 80
		if err := Embed(net, key, ds.X, ds.Y, cfg, rng); err != nil {
			t.Fatalf("seed %d, owner: %v", seed, err)
		}
		attacker, err := GenerateKey(rng, key.LayerIndex, 0, width, key.NbBits(), len(key.Triggers), ds.OfClass(0))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Epochs = 40
		if err := Embed(net, attacker, ds.X, ds.Y, cfg, rng); err != nil {
			t.Fatalf("seed %d, attacker: %v", seed, err)
		}
		_, ber := Extract(net, key)
		t.Logf("seed %d: owner BER %.4g after the overwrite", seed, ber)
		if ber >= 0.5 {
			t.Errorf("seed %d: owner watermark at chance after overwriting (BER %.3f)", seed, ber)
		}
		sum += ber
	}
	if mean := sum / seeds; mean > 0.15 {
		t.Fatalf("owner watermark destroyed by overwriting: mean BER %.3f over %d seeds", mean, seeds)
	}
}

// cloneNet deep-copies a network through its snapshot mechanism.
func cloneNet(t *testing.T, net *nn.Network) *nn.Network {
	t.Helper()
	snap := net.SnapshotParams()
	clone := rebuildLike(t, net)
	clone.RestoreParams(snap)
	return clone
}

// rebuildLike constructs a structurally identical network.
func rebuildLike(t *testing.T, net *nn.Network) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(0))
	var layers []nn.Layer
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *nn.Dense:
			layers = append(layers, nn.NewDense(layer.In, layer.Out, rng))
		case *nn.ReLULayer:
			layers = append(layers, nn.NewReLU(layer.OutputSize()))
		default:
			t.Fatalf("unsupported layer %T in clone", l)
		}
	}
	return &nn.Network{Layers: layers}
}
