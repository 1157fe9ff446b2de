package curve

import (
	"sync/atomic"

	"zkrownn/internal/bn254/fr"
)

// Accelerator is the pluggable multi-scalar-multiplication backend. The
// public MultiExp entry points — and, per chunk, the streamed MSM
// drivers — resolve through the registered accelerator, so an
// out-of-process or GPU backend installed with SetAccelerator serves
// every prover MSM (including out-of-core proves) without touching call
// sites. The default backend is the in-process parallel signed-digit
// Pippenger driver.
//
// Implementations must be safe for concurrent calls and must return
// exactly the group element Σ kᵢ·Pᵢ: the prover treats backends as
// bit-identical drop-ins, and the differential tests pin any registered
// backend against the CPU driver.
//
// The digits of a ScalarDecomposition are sign-folded: they lie in the
// symmetric range [-2^(c-1), 2^(c-1)] (a backend's bucket index is
// |d|-1, and a negative digit adds the negated point), and for a scalar
// s above (r-1)/2 they spell s-r, not s. A backend consuming digits
// therefore gets Σ kᵢ·Pᵢ only for points of order r, which callers
// guarantee (see MultiExpG2); one that reassembles scalars from digits
// must reduce the signed sum mod r.
type Accelerator interface {
	// Name identifies the backend in benchmarks and diagnostics.
	Name() string
	MultiExpG1(points []G1Affine, scalars []fr.Element) G1Jac
	// MultiExpG1Decomposed is the pre-recoded-digit variant; callers
	// amortize one DecomposeScalars across several bases. Backends that
	// cannot consume signed digits directly can reassemble scalars from
	// dec or run the CPU driver for this entry.
	MultiExpG1Decomposed(points []G1Affine, dec *ScalarDecomposition) G1Jac
	MultiExpG2(points []G2Affine, scalars []fr.Element) G2Jac
	MultiExpG2Decomposed(points []G2Affine, dec *ScalarDecomposition) G2Jac
}

// pippengerCPU is the default Accelerator: the in-process parallel
// signed-digit Pippenger driver (msm.go).
type pippengerCPU struct{}

func (pippengerCPU) Name() string { return "pippenger-cpu" }

func (pippengerCPU) MultiExpG1(points []G1Affine, scalars []fr.Element) G1Jac {
	n := len(points)
	if len(scalars) != n {
		panic("curve: MultiExpG1 length mismatch")
	}
	var j G1Jac
	switch n {
	case 0:
		j.SetInfinity()
		return j
	case 1:
		j.FromAffine(&points[0])
		j.ScalarMul(&j, &scalars[0])
		return j
	}
	return multiExp[G1Affine, G1Jac](g1Msm{}, points, DecomposeScalars(scalars, MSMWindowSize(n)), nil, "")
}

func (pippengerCPU) MultiExpG1Decomposed(points []G1Affine, dec *ScalarDecomposition) G1Jac {
	return multiExp[G1Affine, G1Jac](g1Msm{}, points, dec, nil, "")
}

func (pippengerCPU) MultiExpG2(points []G2Affine, scalars []fr.Element) G2Jac {
	n := len(points)
	if len(scalars) != n {
		panic("curve: MultiExpG2 length mismatch")
	}
	var j G2Jac
	switch n {
	case 0:
		j.SetInfinity()
		return j
	case 1:
		j.FromAffine(&points[0])
		j.ScalarMul(&j, &scalars[0])
		return j
	}
	return multiExp[G2Affine, G2Jac](g2Msm{}, points, DecomposeScalars(scalars, MSMWindowSize(n)), nil, "")
}

func (pippengerCPU) MultiExpG2Decomposed(points []G2Affine, dec *ScalarDecomposition) G2Jac {
	return multiExp[G2Affine, G2Jac](g2Msm{}, points, dec, nil, "")
}

// activeAccel holds the registered backend boxed in a concrete struct
// (atomic.Value requires a single stored type while Accelerator
// implementations differ).
type acceleratorBox struct{ a Accelerator }

var activeAccel atomic.Value

// SetAccelerator installs a as the MSM backend for every subsequent
// MultiExp call; nil restores the default CPU Pippenger driver. Safe
// for concurrent use with in-flight MSMs — calls that already resolved
// the previous backend complete on it.
func SetAccelerator(a Accelerator) {
	if a == nil {
		a = pippengerCPU{}
	}
	activeAccel.Store(acceleratorBox{a})
}

// ActiveAccelerator returns the currently registered MSM backend.
func ActiveAccelerator() Accelerator {
	if b, ok := activeAccel.Load().(acceleratorBox); ok {
		return b.a
	}
	return pippengerCPU{}
}
