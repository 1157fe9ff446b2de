// Benchmark harness: one testing.B benchmark per Table I row (and per
// pipeline phase), at dimensions small enough for `go test -bench=.` to
// finish on a laptop. cmd/zkrownn-bench regenerates the full table,
// including -scale paper for the paper's exact dimensions.
package zkrownn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zkrownn/internal/core"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/groth16"
)

var benchP = fixpoint.Default16

// benchPipeline measures the three Groth16 phases for one circuit.
func benchPipeline(b *testing.B, build func(rng *rand.Rand) (*core.Artifact, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	art, err := build(rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%s: %d constraints, %d public inputs",
		art.Name, art.System.NbConstraints(), art.System.NbPublic-1)

	var pk *groth16.ProvingKey
	var vk *groth16.VerifyingKey
	b.Run("Setup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pk, vk, err = groth16.Setup(art.System, rng)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if pk == nil {
		pk, vk, err = groth16.Setup(art.System, rng)
		if err != nil {
			b.Fatal(err)
		}
	}

	var proof *groth16.Proof
	b.Run("Prove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proof, err = groth16.Prove(art.System, pk, art.Witness, rng)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if proof == nil {
		proof, err = groth16.Prove(art.System, pk, art.Witness, rng)
		if err != nil {
			b.Fatal(err)
		}
	}

	public := art.PublicInputs()
	b.Run("Verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := groth16.Verify(vk, proof, public); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableI_MatMult is Table I row 1 (paper: 128×128 inputs,
// 1.10M constraints; here 16×16 for bench runtimes).
func BenchmarkTableI_MatMult(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.MatMultCircuit(benchP, 16, rng)
	})
}

// BenchmarkTableI_Conv3D is Table I row 2 (paper: 32×32×3, 32 channels,
// 3×3, stride 2; here 12×12×3 with 4 channels).
func BenchmarkTableI_Conv3D(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.Conv3DCircuit(benchP, gadgets.Conv3DShape{
			InC: 3, InH: 12, InW: 12, OutC: 4, K: 3, S: 2,
		}, rng)
	})
}

// BenchmarkTableI_ReLU is Table I row 3 (length-128 input, same as the
// paper).
func BenchmarkTableI_ReLU(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.ReLUCircuit(benchP, 128, rng)
	})
}

// BenchmarkTableI_Average2D is Table I row 4 (paper: 128×128; here
// 32×32).
func BenchmarkTableI_Average2D(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.Average2DCircuit(benchP, 32, rng)
	})
}

// BenchmarkTableI_Sigmoid is Table I row 5 (paper: length 128; here 16 —
// each sigmoid costs ~700 constraints).
func BenchmarkTableI_Sigmoid(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.SigmoidCircuit(benchP, 16, rng)
	})
}

// BenchmarkTableI_HardThresholding is Table I row 6 (length 128, as in
// the paper).
func BenchmarkTableI_HardThresholding(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.HardThresholdingCircuit(benchP, 128, rng)
	})
}

// BenchmarkTableI_BER is Table I row 7 (128-bit strings, as in the
// paper).
func BenchmarkTableI_BER(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.BERCircuit(benchP, 128, 2, rng)
	})
}

// BenchmarkTableI_MNISTMLP is Table I row 8 (paper: 784-512 first layer,
// 2.09M constraints; here 64-32 with 2 triggers).
func BenchmarkTableI_MNISTMLP(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.BenchMLPExtractionCircuit(benchP, 64, 32, 16, 2, rng)
	})
}

// BenchmarkTableI_CIFAR10CNN is Table I row 9 (paper: C(32,3,2) over
// 3×32×32, 591k constraints; here 3×12×12 with 4 channels).
func BenchmarkTableI_CIFAR10CNN(b *testing.B) {
	benchPipeline(b, func(rng *rand.Rand) (*core.Artifact, error) {
		return core.BenchCNNExtractionCircuit(benchP, gadgets.Conv3DShape{
			InC: 3, InH: 12, InW: 12, OutC: 4, K: 3, S: 2,
		}, 16, 2, rng)
	})
}

// BenchmarkProverScaling pins GOMAXPROCS and measures trusted setup and
// proving for the MNIST-MLP extraction circuit, demonstrating that the
// FFT / Setup / Prove hot paths scale with cores. Compare procs=1
// against the widest setting the host offers:
//
//	go test -bench ProverScaling -benchtime 3x
func BenchmarkProverScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	art, err := core.BenchMLPExtractionCircuit(benchP, 196, 64, 32, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%s: %d constraints", art.Name, art.System.NbConstraints())
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > 2*runtime.NumCPU() && procs != 1 {
			continue
		}
		b.Run(fmt.Sprintf("Setup/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				if _, _, err := groth16.Setup(art.System, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	pk, _, err := groth16.Setup(art.System, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > 2*runtime.NumCPU() && procs != 1 {
			continue
		}
		b.Run(fmt.Sprintf("Prove/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				if _, err := groth16.Prove(art.System, pk, art.Witness, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCachedProve measures the engine path end-to-end: the
// first iteration pays trusted setup, every subsequent one hits the key
// cache, so the steady-state number is prove-only.
func BenchmarkEngineCachedProve(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	art, err := core.BenchMLPExtractionCircuit(benchP, 64, 32, 16, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineOptions{Rand: rng})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prove(art.Request(nil)); err != nil {
			b.Fatal(err)
		}
	}
	st := eng.Stats()
	b.Logf("engine: %d setups, %d cache hits across %d proves", st.Setups, st.MemHits+st.DiskHits, st.Proves)
}

// BenchmarkAblationFracBits sweeps the fixed-point precision (DESIGN.md
// ablation 3): constraint counts and prover cost grow with range-check
// width, trading extraction fidelity for speed. The sweep stops at
// FracBits 16: the sigmoid is refused past fixpoint.SigmoidMaxFracBits.
func BenchmarkAblationFracBits(b *testing.B) {
	for _, f := range []int{8, 12, 16} {
		p := fixpoint.Params{FracBits: f, MagBits: f + 28}
		b.Run(frName(f), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			art, err := core.SigmoidCircuit(p, 8, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("f=%d: %d constraints", f, art.System.NbConstraints())
			pk, _, err := groth16.Setup(art.System, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := groth16.Prove(art.System, pk, art.Witness, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func frName(f int) string {
	return "f=" + string(rune('0'+f/10)) + string(rune('0'+f%10))
}

// BenchmarkAblationTriggers sweeps the trigger-set size (the dominant
// end-to-end cost factor: the feed-forward prefix is replicated per
// trigger).
func BenchmarkAblationTriggers(b *testing.B) {
	for _, t := range []int{1, 2, 4} {
		b.Run("T="+string(rune('0'+t)), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			art, err := core.BenchMLPExtractionCircuit(benchP, 32, 16, 8, t, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("T=%d: %d constraints", t, art.System.NbConstraints())
			pk, _, err := groth16.Setup(art.System, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := groth16.Prove(art.System, pk, art.Witness, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
