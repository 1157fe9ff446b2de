package curve

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/lanes"
)

func BenchmarkG1Double(b *testing.B) {
	p := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DoubleAssign()
	}
}

func BenchmarkG1Add(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randG1(rng)
	q := randG1(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddAssign(&q)
	}
}

func BenchmarkG1AddMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := randG1(rng)
	q := randG1(rng)
	var qa G1Affine
	qa.FromJacobian(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddMixed(&qa)
	}
}

func BenchmarkG1ScalarMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := G1Generator()
	k := randFr(rng)
	var out G1Jac
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarMul(&p, &k)
	}
}

// BenchmarkG1Flush times one 512-op batch of chord additions — the
// batch-affine flush under every G1 MSM and fixed-base multiplication —
// on both backends, alternating per iteration so machine drift hits
// both alike. It reports ns per addition for each and lanes/scalar, the
// share the lane kernel costs. The buckets keep accumulating across
// iterations, so every op stays a chord.
//
//	go test ./internal/bn254/curve -run '^$' -bench 'G1Flush|FixedBaseMul/G1' -cpu 1
func BenchmarkG1Flush(b *testing.B) {
	const n = msmBatchSize
	rng := rand.New(rand.NewSource(29))
	jacs := make([]G1Jac, 2*n)
	for i := range jacs {
		jacs[i] = randG1(rng)
	}
	aff := BatchJacToAffineG1(jacs)
	buckets, pts := aff[:n], aff[n:]
	idx := make([]int32, n)
	for i, k := range rng.Perm(n) {
		idx[i] = int32(k)
	}
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	onLanes := lanes.SupportIFMA
	adder := newG1BatchAdder(n)
	var scalarNs, laneNs time.Duration
	for i := 0; i < b.N; i++ {
		lanes.SupportIFMA = false
		t0 := time.Now()
		adder.flush(buckets, idx, pts)
		scalarNs += time.Since(t0)
		if onLanes {
			lanes.SupportIFMA = true
			t0 = time.Now()
			adder.flush(buckets, idx, pts)
			laneNs += time.Since(t0)
		}
	}
	adds := float64(b.N) * n
	b.ReportMetric(float64(scalarNs)/adds, "scalar-ns/add")
	if onLanes {
		b.ReportMetric(float64(laneNs)/adds, "ifma-ns/add")
		b.ReportMetric(float64(laneNs)/float64(scalarNs), "ifma/scalar")
	}
}

// BenchmarkG2Flush is BenchmarkG1Flush in G2: one 512-op batch of F_p²
// chord additions — the flush under every G2 MSM and the setup's B2
// fixed-base multiplication — on both backends, alternating per
// iteration, reporting ns per addition and lanes/scalar.
//
//	go test ./internal/bn254/curve -run '^$' -bench 'G2Flush|FixedBaseMul/G2' -cpu 1
func BenchmarkG2Flush(b *testing.B) {
	const n = msmBatchSize
	rng := rand.New(rand.NewSource(30))
	jacs := make([]G2Jac, 2*n)
	for i := range jacs {
		jacs[i] = randG2(rng)
	}
	aff := BatchJacToAffineG2(jacs)
	buckets, pts := aff[:n], aff[n:]
	idx := make([]int32, n)
	for i, k := range rng.Perm(n) {
		idx[i] = int32(k)
	}
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	onLanes := lanes.SupportIFMA
	adder := newG2BatchAdder(n)
	var scalarNs, laneNs time.Duration
	for i := 0; i < b.N; i++ {
		lanes.SupportIFMA = false
		t0 := time.Now()
		adder.flush(buckets, idx, pts)
		scalarNs += time.Since(t0)
		if onLanes {
			lanes.SupportIFMA = true
			t0 = time.Now()
			adder.flush(buckets, idx, pts)
			laneNs += time.Since(t0)
		}
	}
	adds := float64(b.N) * n
	b.ReportMetric(float64(scalarNs)/adds, "scalar-ns/add")
	if onLanes {
		b.ReportMetric(float64(laneNs)/adds, "ifma-ns/add")
		b.ReportMetric(float64(laneNs)/float64(scalarNs), "ifma/scalar")
	}
}

// msmBenchG1Input builds n distinct points via a doubling chain (full
// per-point ScalarMuls would dominate setup at 2^16) plus uniform
// scalars.
func msmBenchG1Input(n int) ([]G1Affine, []fr.Element) {
	rng := rand.New(rand.NewSource(int64(n)))
	jacs := make([]G1Jac, n)
	cur := randG1(rng)
	for i := 0; i < n; i++ {
		jacs[i] = cur
		cur.DoubleAssign()
	}
	return BatchJacToAffineG1(jacs), fullScalars(rng, n)
}

// msmBenchG2Input is msmBenchG1Input over G2 (randG2 draws subgroup
// points).
func msmBenchG2Input(n int) ([]G2Affine, []fr.Element) {
	rng := rand.New(rand.NewSource(int64(n)))
	jacs := make([]G2Jac, n)
	cur := randG2(rng)
	for i := 0; i < n; i++ {
		jacs[i] = cur
		cur.DoubleAssign()
	}
	return BatchJacToAffineG2(jacs), fullScalars(rng, n)
}

// fullScalars draws n uniform scalars: full-width, the shape sign
// folding cannot shorten.
func fullScalars(rng *rand.Rand, n int) []fr.Element {
	scalars := make([]fr.Element, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	return scalars
}

// signedScalars draws n scalars ±x with x < 2^bits, about half of them
// negative (stored as r−x): the shape of quantized weights, which is
// what a public-instance verifier's IC multi-exp sees.
func signedScalars(rng *rand.Rand, n, bits int) []fr.Element {
	scalars := make([]fr.Element, n)
	for i := range scalars {
		b := make([]byte, (bits+7)/8)
		rng.Read(b)
		b[0] &= 0xff >> (8*len(b) - bits)
		scalars[i].SetBytes(b)
		if rng.Intn(2) == 1 {
			scalars[i].Neg(&scalars[i])
		}
	}
	return scalars
}

// witnessScalars draws n scalars in the proportions the benchmark
// circuit's witness has (33,818 wires: 32% zero, 28% one, 20% small
// positive, 20% small negative), small meaning below 2^bits.
func witnessScalars(rng *rand.Rand, n, bits int) []fr.Element {
	scalars := signedScalars(rng, n, bits)
	for i := range scalars {
		switch k := rng.Intn(100); {
		case k < 32:
			scalars[i].SetZero()
		case k < 60:
			scalars[i].SetOne()
		}
	}
	return scalars
}

// BenchmarkMSM is the multi-exponentiation benchmark family: size
// scaling over G1 and G2, core scaling at 2^16 points (the prover-shaped
// size), the scalar shapes sign folding exists for (G1Witness: a
// witness query, and G2Witness the B2 one; G1Signed16: the verifier's IC
// multi-exp over 16-bit signed weights) beside the full-width ones it cannot help, a streamed
// chunked case, and the shared scalar recoding on its own. Run with
// -cpu 1,2 to read the scheduler's parallel efficiency off the pairs.
// Compare across PRs before touching the MSM:
//
//	go test ./internal/bn254/curve/ -run '^$' -bench BenchmarkMSM -cpu 1,2
func BenchmarkMSM(b *testing.B) {
	{
		n := 1 << 15
		points, full := msmBenchG1Input(n)
		rng := rand.New(rand.NewSource(7))
		witness := witnessScalars(rng, n, 32)
		b.Run(fmt.Sprintf("G1Witness/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG1(points, witness)
			}
		})
		signed := signedScalars(rng, 4096, 16)
		b.Run("G1Signed16/n=4096", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG1(points[:4096], signed)
			}
		})
		// The out-of-core prover's shape: DefaultStreamChunk-point chunks,
		// each recoded and fed into the one bucket set of the MSM —
		// G1StreamFull against G1/n=32768 below is what streaming costs.
		src, c := SliceSourceG1(points), StreamWindowSize(n, 0)
		for _, sh := range []struct {
			name    string
			scalars []fr.Element
		}{{"G1StreamFull", full}, {"G1StreamWitness", witness}} {
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := MultiExpG1StreamScalars(src, sh.scalars, c, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	for _, n := range []int{256, 4096, 1 << 15, 1 << 16} {
		points, scalars := msmBenchG1Input(n)
		b.Run(fmt.Sprintf("G1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG1(points, scalars)
			}
		})
	}

	// The two paths of a small MSM side by side at every size around
	// msmSmallThreshold: the joint signed-window pass and a Pippenger run
	// forced through the decomposed entry. The threshold is the smallest
	// n at which the second wins.
	for _, n := range []int{2, 4, 8, 12, 16, 24, 32, 48, 64} {
		points, scalars := msmBenchG1Input(n)
		g2Points, _ := msmBenchG2Input(n)
		b.Run(fmt.Sprintf("G1Small/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = multiExpSmall[G1Affine, G1Jac](g1Msm{}, points, scalars)
			}
		})
		b.Run(fmt.Sprintf("G1Pippenger/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG1Decomposed(points, DecomposeScalars(scalars, MSMWindowSize(n)))
			}
		})
		b.Run(fmt.Sprintf("G2Small/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = multiExpSmall[G2Affine, G2Jac](g2Msm{}, g2Points, scalars)
			}
		})
		b.Run(fmt.Sprintf("G2Pippenger/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG2Decomposed(g2Points, DecomposeScalars(scalars, MSMWindowSize(n)))
			}
		})
	}

	{
		n := 4096
		points, scalars := msmBenchG2Input(n)
		// The aggregation's shape: its G2 MSMs run over a few hundred points.
		b.Run("G2/n=256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG2(points[:256], scalars[:256])
			}
		})
		b.Run(fmt.Sprintf("G2/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG2(points, scalars)
			}
		})
		// The B2 query's shape: witness scalars, whose repeated values
		// crowd the conflict queue, in G2.
		witness := witnessScalars(rand.New(rand.NewSource(8)), n, 32)
		b.Run(fmt.Sprintf("G2Witness/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG2(points, witness)
			}
		})
	}

	{
		n := 1 << 16
		points, scalars := msmBenchG1Input(n)
		b.Run(fmt.Sprintf("Decompose/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = DecomposeScalars(scalars, MSMWindowSize(n))
			}
		})
		for _, procs := range []int{1, 2, 4} {
			if procs > 2*runtime.NumCPU() && procs != 1 {
				continue
			}
			b.Run(fmt.Sprintf("G1/n=%d/procs=%d", n, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				for i := 0; i < b.N; i++ {
					_ = MultiExpG1(points, scalars)
				}
			})
		}
	}
}

// BenchmarkFixedBaseMul measures the trusted setup's kernel at the size
// of a benchmark-circuit key section: dense full-width scalars in both
// groups, the B1 query's shape (40 % zeros in one stretch, which a
// static split would leave to one worker), and the table builds. adds/s
// counts one addition per nonzero digit (per table entry for a build),
// so the G1 : G2 ratio reads off directly and -cpu 1,2 gives the
// two-core efficiency.
func BenchmarkFixedBaseMul(b *testing.B) {
	const n = 32768
	rng := rand.New(rand.NewSource(5))
	dense := fullScalars(rng, n)
	sparse := append(make([]fr.Element, n*2/5), dense[n*2/5:]...)
	g1, g2 := G1Generator(), G2Generator()
	t1, t2 := NewG1FixedBaseTable(&g1), NewG2FixedBaseTable(&g2)
	run := func(name string, adds int, f func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(float64(adds)*float64(b.N)/b.Elapsed().Seconds(), "adds/s")
		})
	}
	denseAdds := nonzeroDigits(DecomposeScalars(dense, fixedBaseWindow))
	sparseAdds := nonzeroDigits(DecomposeScalars(sparse, fixedBaseWindow))
	run(fmt.Sprintf("G1/MulBatch/n=%d", n), denseAdds, func() { t1.MulBatch(dense) })
	run(fmt.Sprintf("G2/MulBatch/n=%d", n), denseAdds, func() { t2.MulBatch(dense) })
	run(fmt.Sprintf("G1/MulBatchSparse/n=%d", n), sparseAdds, func() { t1.MulBatch(sparse) })
	run("TableBuild/G1", len(t1.entries), func() { NewG1FixedBaseTable(&g1) })
	run("TableBuild/G2", len(t2.entries), func() { NewG2FixedBaseTable(&g2) })
}

func BenchmarkG2ScalarMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := G2Generator()
	k := randFr(rng)
	var out G2Jac
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarMul(&p, &k)
	}
}

// BenchmarkRawSource decodes one DefaultStreamChunk of raw (BytesRaw)
// points through NewG1RawSource and NewG2RawSource: the decode under
// every streamed proving-key section, range and curve checks included.
// It reports ns per point.
func BenchmarkRawSource(b *testing.B) {
	const n = DefaultStreamChunk
	rng := rand.New(rand.NewSource(406))
	b.Run("G1", func(b *testing.B) {
		g, p := G1Generator(), randG1(rng)
		raw := make([]byte, 0, n*G1UncompressedSize)
		for range n {
			p.AddAssign(&g)
			var a G1Affine
			a.FromJacobian(&p)
			enc := a.BytesRaw()
			raw = append(raw, enc[:]...)
		}
		benchRawSource(b, NewG1RawSource(bytes.NewReader(raw), 0), make([]G1Affine, n))
	})
	b.Run("G2", func(b *testing.B) {
		g, p := G2Generator(), randG2(rng)
		raw := make([]byte, 0, n*G2UncompressedSize)
		for range n {
			p.AddAssign(&g)
			var a G2Affine
			a.FromJacobian(&p)
			enc := a.BytesRaw()
			raw = append(raw, enc[:]...)
		}
		benchRawSource(b, NewG2RawSource(bytes.NewReader(raw), 0), make([]G2Affine, n))
	})
}

func benchRawSource[P any](b *testing.B, src func(dst []P, start int) error, dst []P) {
	b.ResetTimer()
	for range b.N {
		if err := src(dst, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/point")
}
