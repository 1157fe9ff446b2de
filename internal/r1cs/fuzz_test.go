package r1cs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/r1cs/r1cstest"
)

// FuzzCompiledSystemRoundTrip holds the CSR representation to the
// math/big row oracle on random constraint systems. The rows are built
// around a random witness — A and B free, C completed with a constant
// term so that the row holds — which gives every system a satisfying
// assignment and full-width coefficients:
//
//   - Validate must accept the constructor's output.
//   - IsSatisfied must agree with r1cstest.Satisfied on the verdict AND
//     the first-violation index, for the satisfying witness and for a
//     perturbed one.
//   - DigestHex must equal r1cstest.Digest (the key cache / registry-ID
//     contract), and StripForSolve must keep digest and dimensions.
//   - Solve must scatter a full witness back unchanged (every wire of a
//     constructor-built system is an input).
func FuzzCompiledSystemRoundTrip(f *testing.F) {
	f.Add([]byte("\x02\x03\x02" + "coefficients and wires come from here"))
	f.Add([]byte{1, 0, 1, 3, 1, 1, 2, 1, 1, 3, 2, 2, 9, 9, 9})
	f.Add([]byte{3, 5, 4, 0xff, 0x10, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		nbPublic := 1 + int(data[0]%4)
		nbWires := nbPublic + int(data[1]%6)
		nbCons := 1 + int(data[2]%6)
		pos := 3
		nextByte := func() byte {
			b := data[pos%len(data)]
			pos++
			return b
		}
		w := make([]*big.Int, nbWires)
		w[0] = big.NewInt(1)
		for i := 1; i < nbWires; i++ {
			w[i] = big.NewInt(int64(nextByte()))
		}
		mkLC := func() []r1cstest.Term {
			var lc []r1cstest.Term
			for n := int(nextByte()) % 4; n > 0; n-- {
				c := int64(nextByte())
				lc = append(lc, r1cstest.T(int(nextByte())%nbWires, c))
			}
			return lc
		}
		rows := &r1cstest.Rows{NbPublic: nbPublic, NbWires: nbWires}
		for i := 0; i < nbCons; i++ {
			row := r1cstest.Row{A: mkLC(), B: mkLC(), C: mkLC()}
			fix := new(big.Int).Mul(r1cstest.Eval(row.A, w), r1cstest.Eval(row.B, w))
			fix.Sub(fix, r1cstest.Eval(row.C, w))
			row.C = append(row.C, r1cstest.Term{Wire: 0, Coeff: fix})
			rows.Rows = append(rows.Rows, row)
		}

		cs, err := r1cstest.CSR(rows)
		if err != nil {
			t.Fatalf("Validate rejected a well-formed system: %v", err)
		}
		if got, want := cs.DigestHex(), r1cstest.Digest(rows); got != want {
			t.Fatalf("CSR digest %s diverges from the oracle's %s", got, want)
		}
		if s := cs.StripForSolve(); s.DigestHex() != cs.DigestHex() || s.Dims() != cs.Dims() {
			t.Fatal("StripForSolve changed the digest or the dimensions")
		}

		agree := func(what string, w []*big.Int) (ok bool) {
			we := frOf(w)
			okRef, badRef := r1cstest.Satisfied(rows, w)
			okCSR, badCSR := cs.IsSatisfied(we)
			if okRef != okCSR || badRef != badCSR {
				t.Fatalf("%s witness: oracle says (%v, %d), CSR says (%v, %d)", what, okRef, badRef, okCSR, badCSR)
			}
			solved, err := cs.Solve(we[1:nbPublic], we[nbPublic:])
			if err != nil {
				t.Fatalf("scatter solve: %v", err)
			}
			for i := 1; i < len(solved); i++ { // wire 0 is Solve's own constant
				if !solved[i].Equal(&we[i]) {
					t.Fatalf("wire %d changed through Solve", i)
				}
			}
			return okRef
		}
		if !agree("satisfying", w) {
			t.Fatal("the witness the rows were built around does not satisfy them")
		}
		j := int(nextByte()) % nbWires // wire 0 included: a constant wire ≠ 1 is rejected at -1
		w[j] = new(big.Int).Add(w[j], big.NewInt(1+int64(nextByte())))
		agree("perturbed", w)
	})
}

// csFrame puts payload under the 16-byte integrity frame of a "ZKCS"
// file (magic · u64 payload length · CRC-32C, see internal/diskfile), so
// what the fuzzer mutates reaches the section parser instead of dying at
// the checksum.
func csFrame(payload []byte) []byte {
	out := make([]byte, 16, 16+len(payload))
	copy(out, "ZKCS")
	binary.LittleEndian.PutUint64(out[4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[12:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// FuzzCompiledSystemFile feeds the constraint-system file decoder
// arbitrary payloads under a valid frame. OpenCompiledSystemFile and
// every window read must either fail with ErrBadCSRFile or hand out
// terms inside the file's own dimensions — never panic, never allocate
// beyond a multiple of the bytes actually present — and the untouched
// seed must decode to exactly the rows it was written from.
func FuzzCompiledSystemFile(f *testing.F) {
	rows := r1cstest.Cubic(5)
	cs, err := r1cstest.CSR(rows)
	if err != nil {
		f.Fatal(err)
	}
	seedPath := filepath.Join(f.TempDir(), "seed.csr")
	if err := r1cs.WriteCompiledSystemFile(seedPath, cs); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(raw, csFrame(raw[16:])) {
		f.Fatal("the harness frames differently from diskfile.WriteFramed")
	}
	seed := raw[16:]
	for _, keep := range []int{len(seed), len(seed) - 1, len(seed) - 12, len(seed) / 2, 48, 47, 16, 3, 0} {
		f.Add(seed[:keep])
	}
	// The term arrays close the payload (C's three wires, then its three
	// coefficient indices) and are not looked at until a window is read.
	for _, at := range []int{len(seed) - 24, len(seed) - 4} {
		bad := bytes.Clone(seed)
		bad[at] = 0xc8
		f.Add(bad)
	}

	// One file per process, rewritten per input: a worker runs its inputs
	// one at a time.
	path := filepath.Join(f.TempDir(), "fuzz.csr")
	allocated := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := os.WriteFile(path, csFrame(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		before := allocated()
		cf, err := r1cs.OpenCompiledSystemFile(path)
		if err != nil {
			if !errors.Is(err, r1cs.ErrBadCSRFile) {
				t.Fatalf("open failed outside ErrBadCSRFile: %v", err)
			}
			return
		}
		defer cf.Close()
		dims := cf.Dims()
		// NbWires is a header field no section has to back, so only a
		// small one gets a witness to evaluate rows against.
		var w []fr.Element
		if dims.NbWires <= 1<<12 {
			w = make([]fr.Element, dims.NbWires)
		}
		mats := []r1cs.MatrixStream{cf.MatA(), cf.MatB(), cf.MatC()}
		// 7-term windows: boundaries land mid-matrix even on the seed.
		walk := func(visit func(m, row int, wires, coeffIdx []uint32, dict []fr.Element)) error {
			return r1cs.ForRowWindows(7, mats, func(wins []*r1cs.RowWindow) error {
				for m, win := range wins {
					for i := 0; i < win.Rows; i++ {
						wires, coeffIdx := win.Row(i)
						visit(m, win.Start+i, wires, coeffIdx, win.Dict)
						if w != nil {
							_ = win.RowEval(i, w)
						}
					}
				}
				return nil
			})
		}
		err = walk(func(m, row int, wires, coeffIdx []uint32, dict []fr.Element) {
			for k := range wires {
				if int(wires[k]) >= dims.NbWires || int(coeffIdx[k]) >= len(dict) {
					t.Fatalf("matrix %d row %d: term (wire %d, coeff %d) outside %d wires / %d coefficients in an accepted window",
						m, row, wires[k], coeffIdx[k], dims.NbWires, len(dict))
				}
			}
		})
		// The parser's 1 MiB read buffer, then dictionaries, row offsets
		// and window scratch, each bounded by the payload they came from.
		if grew, bound := allocated()-before, uint64(4<<20+64*len(payload)); grew > bound {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (bound %d)", len(payload), grew, bound)
		}
		if err != nil {
			if !errors.Is(err, r1cs.ErrBadCSRFile) {
				t.Fatalf("window read failed outside ErrBadCSRFile: %v", err)
			}
			return
		}

		if !bytes.Equal(payload, seed) {
			return
		}
		got := &r1cstest.Rows{NbPublic: dims.NbPublic, NbWires: dims.NbWires, Rows: make([]r1cstest.Row, dims.NbConstraints)}
		if err := walk(func(m, row int, wires, coeffIdx []uint32, dict []fr.Element) {
			dst := []*[]r1cstest.Term{&got.Rows[row].A, &got.Rows[row].B, &got.Rows[row].C}[m]
			for k := range wires {
				*dst = append(*dst, r1cstest.Term{Wire: int(wires[k]), Coeff: dict[coeffIdx[k]].ToBigInt()})
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got.NbPublic != rows.NbPublic || got.NbWires != rows.NbWires || len(got.Rows) != len(rows.Rows) {
			t.Fatalf("seed decoded to dimensions %+v", dims)
		}
		if cf.DigestHex() != r1cstest.Digest(rows) || r1cstest.Digest(got) != r1cstest.Digest(rows) {
			t.Fatalf("seed decoded to digest %s (rows re-digest to %s), oracle says %s", cf.DigestHex(), r1cstest.Digest(got), r1cstest.Digest(rows))
		}
	})
}
