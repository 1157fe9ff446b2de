// Package groth16 implements the Groth16 zkSNARK (Jens Groth, "On the
// Size of Pairing-Based Non-interactive Arguments", EUROCRYPT 2016) over
// BN254, the protocol/curve combination used by ZKROWNN's libsnark
// backend.
//
// The implementation follows the paper's notation: the circuit is a QAP
// {uⱼ, vⱼ, wⱼ} over an FFT-friendly domain H, the trusted setup samples
// (τ, α, β, γ, δ), and a proof is the triple (A, B, C) ∈ G1 × G2 × G1
// verified with a single pairing-product equation
//
//	e(A, B) = e(α, β) · e(Σ xⱼ·ICⱼ, γ) · e(C, δ).
package groth16

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/ext"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// ProvingKey holds the prover's share of the structured reference string.
type ProvingKey struct {
	AlphaG1, BetaG1, DeltaG1 curve.G1Affine
	BetaG2, DeltaG2          curve.G2Affine

	// A[j] = [uⱼ(τ)]₁ for every wire j.
	A []curve.G1Affine
	// B1[j] = [vⱼ(τ)]₁, B2[j] = [vⱼ(τ)]₂ for every wire j.
	B1 []curve.G1Affine
	B2 []curve.G2Affine
	// K[j-ℓ-1] = [(β·uⱼ(τ) + α·vⱼ(τ) + wⱼ(τ))/δ]₁ for private wires j.
	K []curve.G1Affine
	// Z[i] = [τⁱ·Z_H(τ)/δ]₁ for i = 0..n-2.
	Z []curve.G1Affine

	// DomainSize is the FFT domain order n used at setup.
	DomainSize uint64
}

// VerifyingKey holds the public verification material.
type VerifyingKey struct {
	AlphaG1 curve.G1Affine
	BetaG2  curve.G2Affine
	GammaG2 curve.G2Affine
	DeltaG2 curve.G2Affine
	// IC[j] = [(β·uⱼ(τ) + α·vⱼ(τ) + wⱼ(τ))/γ]₁ for public wires
	// j = 0..ℓ (IC[0] is the constant wire).
	IC []curve.G1Affine
	// AlphaBeta caches e(α, β), the proof-independent pairing of the
	// verification equation, so that no verify pairs α with β. Setup,
	// ReadFrom, and PrecomputeAlphaBeta populate it; the zero value
	// (never a valid pairing output) means "not computed", and each
	// verify then computes e(α, β) itself.
	// Populate before sharing the key across goroutines.
	AlphaBeta GTElement

	// Line tables of γ and δ (pairing.PrecomputeLines), cached where
	// AlphaBeta is and by the same three routes: with them a check does
	// G2 arithmetic only for the proof's own B. Derived data (≈ 12 kB a
	// point), never serialized, immutable once built. A table remembers
	// its point and the pairing ignores one that is nil or belongs to
	// another point, so a hand-assembled key, or one whose GammaG2 /
	// DeltaG2 were changed after the fact, verifies exactly as a freshly
	// decoded key does — only slower.
	gammaLines, deltaLines *pairing.Lines
}

// precompute derives the key's caches from its points.
func (vk *VerifyingKey) precompute() {
	vk.AlphaBeta = pairing.Pair(&vk.AlphaG1, &vk.BetaG2)
	vk.gammaLines = pairing.PrecomputeLines(&vk.GammaG2)
	vk.deltaLines = pairing.PrecomputeLines(&vk.DeltaG2)
}

// alphaBeta returns e(α, β): the cache, or on a key without it the
// pairing computed on the spot — not stored, so a shared key is only
// ever read.
func (vk *VerifyingKey) alphaBeta() *GTElement {
	if !vk.AlphaBeta.IsZero() {
		return &vk.AlphaBeta
	}
	ab := pairing.Pair(&vk.AlphaG1, &vk.BetaG2)
	return &ab
}

// Proof is a Groth16 proof: 2 G1 points and 1 G2 point, 128 bytes
// compressed — matching the paper's constant "127.375 B" proof size.
type Proof struct {
	Ar  curve.G1Affine
	Bs  curve.G2Affine
	Krs curve.G1Affine
}

// Setup runs the trusted setup for the given compiled constraint
// system. rng supplies toxic-waste randomness (crypto/rand if nil). The
// returned keys are circuit-specific; re-run Setup whenever the circuit
// changes (in ZKROWNN the circuit is static, so this cost is paid once
// per architecture and shared by every solve-many proof). sys may be a
// resident *r1cs.CompiledSystem or a disk-backed
// *r1cs.CompiledSystemFile: either way the QAP accumulation reads its
// rows through r1cs.MatrixStream in bounded windows, and the key
// material is the same.
func Setup(sys r1cs.Constraints, rng io.Reader) (*ProvingKey, *VerifyingKey, error) {
	pk := new(ProvingKey)
	vk, err := setup(sys, rng, math.MaxInt, &residentKey{pk: pk})
	if err != nil {
		return nil, nil, err
	}
	return pk, vk, nil
}

// keySink receives a proving key in raw-layout order (stream.go): the
// header, then the query sections A, B1, K, Z in G1 and B2 in G2, each
// announced with its point count and delivered in one or more batches.
type keySink interface {
	header(domainSize uint64, g1 [3]curve.G1Affine, g2 [2]curve.G2Affine) error // α β δ; β δ
	section(n int) error
	g1(pts []curve.G1Affine) error
	g2(pts []curve.G2Affine) error
}

// setup is the one trusted-setup body. It multiplies the key out section
// by section, at most batch scalars per fixed-base call, and hands every
// batch to sink: Setup keeps whole sections (residentKey), SetupStreamed
// encodes bounded batches as they come (rawKeyWriter). A section's
// scalars are dropped once its last batch is delivered, so the streamed
// form never holds more than the scalar vectors still to be spent plus
// one batch of points. Only the verifying key — a handful of points plus
// one G1 per public input — is returned.
func setup(sys r1cs.Constraints, rng io.Reader, batch int, sink keySink) (*VerifyingKey, error) {
	sc, err := computeSetupScalars(sys, rng)
	if err != nil {
		return nil, err
	}
	// Fixed-base tables amortize the ~4m+n generator multiplications.
	g1 := curve.G1Generator()
	g2 := curve.G2Generator()
	t1 := curve.NewG1FixedBaseTable(&g1)
	t2 := curve.NewG2FixedBaseTable(&g2)

	g1s, g2s := sc.singles(t1, t2)
	if err := sink.header(sc.domain.N, [3]curve.G1Affine(g1s), [2]curve.G2Affine{g2s[0], g2s[2]}); err != nil {
		return nil, err
	}
	section := func(scalars []fr.Element, mul func([]fr.Element) error) error {
		if err := sink.section(len(scalars)); err != nil {
			return err
		}
		for len(scalars) > batch {
			if err := mul(scalars[:batch]); err != nil {
				return err
			}
			scalars = scalars[batch:]
		}
		return mul(scalars)
	}
	mulG1 := func(ks []fr.Element) error { return sink.g1(t1.MulBatch(ks)) }
	// vTau feeds both B1 and B2, so it alone survives to the end.
	for _, scalars := range []*[]fr.Element{&sc.uTau, &sc.vTau, &sc.kScalars, &sc.zScalars} {
		if err := section(*scalars, mulG1); err != nil {
			return nil, err
		}
		if scalars != &sc.vTau {
			*scalars = nil
		}
	}
	if err := section(sc.vTau, func(ks []fr.Element) error { return sink.g2(t2.MulBatch(ks)) }); err != nil {
		return nil, err
	}
	sc.vTau = nil

	vk := sc.verifyingKey(t1, g1s, g2s)
	return &vk, nil
}

// g1Sections lists the key's G1 query sections in raw-layout order; B2,
// the one G2 section, follows them.
func (pk *ProvingKey) g1Sections() [4]*[]curve.G1Affine {
	return [4]*[]curve.G1Affine{&pk.A, &pk.B1, &pk.K, &pk.Z}
}

// residentKey is the keySink that keeps the key in memory. It is fed
// whole sections, so a batch is stored as delivered, never copied.
type residentKey struct {
	pk  *ProvingKey
	sec int // sections announced so far
}

func (k *residentKey) header(domainSize uint64, g1 [3]curve.G1Affine, g2 [2]curve.G2Affine) error {
	k.pk.DomainSize = domainSize
	k.pk.AlphaG1, k.pk.BetaG1, k.pk.DeltaG1 = g1[0], g1[1], g1[2]
	k.pk.BetaG2, k.pk.DeltaG2 = g2[0], g2[1]
	return nil
}

func (k *residentKey) section(int) error {
	k.sec++
	return nil
}

func (k *residentKey) g1(pts []curve.G1Affine) error {
	*k.pk.g1Sections()[k.sec-1] = pts
	return nil
}

func (k *residentKey) g2(pts []curve.G2Affine) error {
	k.pk.B2 = pts
	return nil
}

// setupScalars is the scalar half of trusted setup: every query section
// of the key, still in exponent form, and all the randomness a setup
// draws — so a seeded rng yields identical key material whichever sink
// the points go to.
type setupScalars struct {
	domain                    *poly.Domain
	alpha, beta, gamma, delta fr.Element
	uTau, vTau                []fr.Element
	icScalars, kScalars       []fr.Element
	zScalars                  []fr.Element
}

// computeSetupScalars draws the toxic waste and derives every query's
// scalars from it: uⱼ(τ), vⱼ(τ), wⱼ(τ) from the matrices' row windows,
// then the K, IC and Z scalars from those.
func computeSetupScalars(sys r1cs.Constraints, rng io.Reader) (*setupScalars, error) {
	if rng == nil {
		rng = rand.Reader
	}
	// Resident systems validate structurally; file-backed systems were
	// validated when written and carry a CRC checked at open.
	if cs, ok := sys.(*r1cs.CompiledSystem); ok {
		if err := cs.Validate(); err != nil {
			return nil, err
		}
	}
	d := sys.Dims()
	nbCons := d.NbConstraints
	if nbCons == 0 {
		return nil, errors.New("groth16: empty constraint system")
	}
	domain, err := poly.NewDomain(uint64(nbCons))
	if err != nil {
		return nil, err
	}

	tau, err := randFr(rng)
	if err != nil {
		return nil, err
	}
	alpha, err := randFr(rng)
	if err != nil {
		return nil, err
	}
	beta, err := randFr(rng)
	if err != nil {
		return nil, err
	}
	gamma, err := randFr(rng)
	if err != nil {
		return nil, err
	}
	delta, err := randFr(rng)
	if err != nil {
		return nil, err
	}

	// QAP polynomials evaluated at τ via the Lagrange basis, one matrix
	// per goroutine, each walked in bounded row windows (qapAccumulate)
	// whether the system is resident or file-backed.
	lag := domain.LagrangeBasisAt(&tau)
	m := d.NbWires
	uTau := make([]fr.Element, m)
	vTau := make([]fr.Element, m)
	wTau := make([]fr.Element, m)
	var accWg sync.WaitGroup
	var accErr [3]error
	for i, job := range []struct {
		ms  r1cs.MatrixStream
		dst []fr.Element
	}{{sys.MatA(), uTau}, {sys.MatB(), vTau}, {sys.MatC(), wTau}} {
		accWg.Add(1)
		go func() {
			defer accWg.Done()
			accErr[i] = qapAccumulate(job.ms, lag, job.dst, setupWindowTerms)
		}()
	}
	accWg.Wait()
	if err := errors.Join(accErr[:]...); err != nil {
		return nil, err
	}

	var gammaInv, deltaInv fr.Element
	gammaInv.Inverse(&gamma)
	deltaInv.Inverse(&delta)

	// K-query scalars (private wires) and IC scalars (public wires):
	// (β·uⱼ + α·vⱼ + wⱼ) scaled by 1/δ or 1/γ. Disjoint writes per wire.
	ell := d.NbPublic // wires 0..ell-1 public
	icScalars := make([]fr.Element, ell)
	kScalars := make([]fr.Element, m-ell)
	par.Range(m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var acc, t fr.Element
			acc.Mul(&beta, &uTau[j])
			t.Mul(&alpha, &vTau[j])
			acc.Add(&acc, &t)
			acc.Add(&acc, &wTau[j])
			if j < ell {
				icScalars[j].Mul(&acc, &gammaInv)
			} else {
				kScalars[j-ell].Mul(&acc, &deltaInv)
			}
		}
	})

	// Z-query scalars: τⁱ·Z(τ)/δ for i = 0..n-2, each chunk seeded with
	// Z(τ)/δ·τ^start.
	n := domain.N
	zTau := domain.VanishingEval(&tau)
	var zOverDelta fr.Element
	zOverDelta.Mul(&zTau, &deltaInv)
	zScalars := make([]fr.Element, n-1)
	par.Range(len(zScalars), func(lo, hi int) {
		cur := zOverDelta
		var tpow fr.Element
		tpow.Exp(&tau, big.NewInt(int64(lo)))
		cur.Mul(&cur, &tpow)
		for i := lo; i < hi; i++ {
			zScalars[i] = cur
			cur.Mul(&cur, &tau)
		}
	})

	return &setupScalars{
		domain: domain,
		alpha:  alpha, beta: beta, gamma: gamma, delta: delta,
		uTau: uTau, vTau: vTau,
		icScalars: icScalars, kScalars: kScalars, zScalars: zScalars,
	}, nil
}

// singles multiplies out the key's lone elements: [α, β, δ]·G1 and
// [β, γ, δ]·G2, one short batch per group.
func (sc *setupScalars) singles(t1 *curve.G1FixedBaseTable, t2 *curve.G2FixedBaseTable) ([]curve.G1Affine, []curve.G2Affine) {
	return t1.MulBatch([]fr.Element{sc.alpha, sc.beta, sc.delta}),
		t2.MulBatch([]fr.Element{sc.beta, sc.gamma, sc.delta})
}

// verifyingKey assembles the (small) verifying key from the setup
// scalars and the elements singles returned.
func (sc *setupScalars) verifyingKey(t1 *curve.G1FixedBaseTable, g1s []curve.G1Affine, g2s []curve.G2Affine) VerifyingKey {
	vk := VerifyingKey{IC: t1.MulBatch(sc.icScalars)}
	vk.AlphaG1 = g1s[0]
	vk.BetaG2, vk.GammaG2, vk.DeltaG2 = g2s[0], g2s[1], g2s[2]
	vk.precompute()
	return vk
}

// Prove produces a proof that the witness satisfies the system. The
// witness is the full wire assignment (constant wire first); callers
// normally obtain it from CompiledSystem.Solve (or the frontend's eager
// compile result).
//
// Residency is a matter of the arguments, not of the function: sys is a
// resident *r1cs.CompiledSystem or a *r1cs.CompiledSystemFile whose rows
// stream in bounded windows, and pk a *ProvingKey in memory or a
// *StreamedProvingKey left on disk (an in-memory key wants a resident
// system). Under the same seeded rng every combination returns the same
// proof bytes: chunking only reassociates the MSM partial sums, field
// arithmetic is exact, and affine normalization is canonical.
//
// A trailing obs.Scope records per-phase spans (the row walk, scalar
// recoding, each query MSM, and on a lane of their own the quotient
// pipeline and the Z-query MSM that run beside them — with a streamed
// key the per-chunk read/recode/msm breakdown and the out-of-core
// quotient stages) named under it; tr.Scope("") keeps the bare names.
// Without one the prove is untraced.
func Prove(sys r1cs.Constraints, pk ProverKey, witness []fr.Element, rng io.Reader, sc ...obs.Scope) (*Proof, error) {
	return prove(sys, pk, &witnessSrc{mem: witness}, rng, obs.Opt(sc))
}

// ProveSpilled is Prove with the witness in a spilled store instead of
// RAM: constraint evaluation reads wires through the store's bounded
// page cache and every MSM streams witness scalars from the file, so
// with a streamed key and a file-backed sys neither the key, the
// matrices, the witness, nor the quotient is ever fully resident. The
// store must hold a finished solve (r1cs.CompiledSystem.SolveSpilled),
// and pk must be a *StreamedProvingKey — an in-memory key dwarfs the
// witness and rejects a spilled one. Proofs are byte-identical to
// Prove's under the same seeded rng: the spill roundtrip preserves
// encodings bit for bit.
func ProveSpilled(sys r1cs.Constraints, pk ProverKey, wf *r1cs.WitnessFile, rng io.Reader, sc ...obs.Scope) (*Proof, error) {
	return prove(sys, pk, &witnessSrc{file: wf}, rng, obs.Opt(sc))
}

// pkHeader is the handful of single points every prover backend exposes
// alongside its query sections.
type pkHeader struct {
	AlphaG1, BetaG1, DeltaG1 curve.G1Affine
	BetaG2, DeltaG2          curve.G2Affine
	DomainSize               uint64
}

// ProverKey is the structured reference string the prover consumes:
// *ProvingKey (fully in memory) or *StreamedProvingKey (left on disk).
// The interface is sealed — its methods are unexported — so the two
// modes share one prove flow and cannot drift.
type ProverKey interface {
	// SizeBytes is the key's compressed size, Table I's PK column
	// (ProvingKey.SizeBytes), whichever form holds it.
	SizeBytes() int64
	header() pkHeader
	// evalRows is the prove's one walk over the constraint rows: it
	// checks the witness against every row and keeps the three evaluation
	// vectors in the backend's residency (pooled domain vectors, or disk
	// vectors under the spill directory). It runs before anything else —
	// before checkShape, before randomness is drawn, before any lane
	// starts — and is the only place the prover reads a spilled witness
	// through its page cache. Backends that cannot serve the arguments'
	// residency (the in-memory key with a file-backed system or a spilled
	// witness) reject here.
	evalRows(sys r1cs.Constraints, w *witnessSrc, sc obs.Scope) (*rowEvals, error)
	// checkShape verifies the key's query sections match the system's
	// dimensions before any randomness is drawn.
	checkShape(d r1cs.Dims) error
	// prepWitness binds the witness for the three wire-query MSMs,
	// choosing the backend's recoding strategy.
	prepWitness(w *witnessSrc) witnessExp
	// The exp methods record their spans under sc, the prove's scope (the
	// zero Scope disables tracing at zero cost).
	expA(w witnessExp, sc obs.Scope) (curve.G1Jac, error)
	expB1(w witnessExp, sc obs.Scope) (curve.G1Jac, error)
	expB2(w witnessExp, sc obs.Scope) (curve.G2Jac, error)
	// expK runs the private-wire query over wires [nbPublic, NbWires).
	expK(w witnessExp, nbPublic int, sc obs.Scope) (curve.G1Jac, error)
	// expZQuotient is the quotient lane: it reduces the evaluated rows to
	// h = (A·B - C)/Z and folds h into the Z-query MSM, in the residency
	// evalRows chose: resident domain vectors, or the out-of-core pipeline
	// (disk-resident vectors, bounded-memory FFTs, MSM scalars streamed
	// from the h file). Field arithmetic is exact and fr encodings are
	// canonical, so h — and the proof — is bit-equal either way. It runs
	// beside the four witness MSMs and touches only ev, never the witness.
	expZQuotient(ev *rowEvals, sc obs.Scope) (curve.G1Jac, error)
}

// witnessExp carries the witness for the A, B1, and B2 queries. The
// in-memory backend recodes the whole vector once up front (dec is
// shared across the three MSMs — digits depend only on the scalars, not
// the group); the streamed backend leaves dec nil and recodes lazily
// chunk by chunk inside each MSM, keeping resident digit memory at one
// chunk's worth instead of two bytes per window per wire.
type witnessExp struct {
	src *witnessSrc
	dec *curve.ScalarDecomposition
}

func (pk *ProvingKey) header() pkHeader {
	return pkHeader{
		AlphaG1: pk.AlphaG1, BetaG1: pk.BetaG1, DeltaG1: pk.DeltaG1,
		BetaG2: pk.BetaG2, DeltaG2: pk.DeltaG2,
		DomainSize: pk.DomainSize,
	}
}

func (pk *ProvingKey) checkShape(d r1cs.Dims) error {
	m := d.NbWires
	if len(pk.A) != m || len(pk.B1) != m || len(pk.B2) != m {
		return fmt.Errorf("groth16: key wire sections sized %d/%d/%d, system has %d wires",
			len(pk.A), len(pk.B1), len(pk.B2), m)
	}
	if len(pk.K) != m-d.NbPublic {
		return fmt.Errorf("groth16: key K section sized %d, system has %d private wires",
			len(pk.K), m-d.NbPublic)
	}
	return nil
}

// evalRows fills three pooled domain vectors in one parallel pass over
// the resident rows.
func (pk *ProvingKey) evalRows(sys r1cs.Constraints, w *witnessSrc, sc obs.Scope) (*rowEvals, error) {
	if _, ok := sys.(*r1cs.CompiledSystem); !ok || w.mem == nil {
		// The fully materialized key dwarfs the matrices and the witness;
		// pairing it with either on disk would be a configuration bug, not
		// a memory win.
		return nil, errors.New("groth16: in-memory proving key requires a resident system and witness")
	}
	ev, err := newRowEvals(pk.DomainSize, sys.Dims().NbConstraints)
	if err != nil {
		return nil, err
	}
	for k := range ev.mem {
		ev.mem[k] = quotientVecs.Get(int(pk.DomainSize))
	}
	sp := sc.Sub("prove/rows").Span()
	err = walkRows(sys, w, math.MaxInt, math.MaxInt, obs.Scope{},
		func(start, rows int) (a, b, c []fr.Element) {
			return ev.mem[0][start : start+rows], ev.mem[1][start : start+rows], ev.mem[2][start : start+rows]
		},
		func(int, []fr.Element, []fr.Element, []fr.Element) error { return nil })
	sp.End()
	if err != nil {
		ev.release()
		return nil, err
	}
	return ev, nil
}

func (pk *ProvingKey) prepWitness(w *witnessSrc) witnessExp {
	return witnessExp{
		src: w,
		dec: curve.DecomposeScalars(w.mem, curve.MSMWindowSize(len(w.mem))),
	}
}

func (pk *ProvingKey) expA(w witnessExp, sc obs.Scope) (curve.G1Jac, error) {
	return curve.MultiExpG1Decomposed(pk.A, w.dec, sc.Sub("msm/A")), nil
}

func (pk *ProvingKey) expB1(w witnessExp, sc obs.Scope) (curve.G1Jac, error) {
	return curve.MultiExpG1Decomposed(pk.B1, w.dec, sc.Sub("msm/B1")), nil
}

func (pk *ProvingKey) expB2(w witnessExp, sc obs.Scope) (curve.G2Jac, error) {
	return curve.MultiExpG2Decomposed(pk.B2, w.dec, sc.Sub("msm/B2")), nil
}

func (pk *ProvingKey) expK(w witnessExp, nbPublic int, sc obs.Scope) (curve.G1Jac, error) {
	return curve.MultiExpG1(pk.K, w.src.mem[nbPublic:], sc.Sub("msm/K")), nil
}

func (pk *ProvingKey) expZQuotient(ev *rowEvals, sc obs.Scope) (curve.G1Jac, error) {
	h, err := quotient(ev, sc)
	if err != nil {
		return curve.G1Jac{}, err
	}
	return curve.MultiExpG1(pk.Z, h, sc.Sub("msm/Z")), nil
}

// prove is the prover: every residency of system, key and witness runs
// it, on one fixed schedule. First, on the calling goroutine, one walk
// over the constraint rows checks the witness and keeps A·w, B·w, C·w
// (evalRows); then randomness is drawn in a fixed order (r then s), so a
// seeded rng yields identical proofs from either key backend. Then two
// lanes run side by side, at any GOMAXPROCS: the quotient lane
// (transforms → h → Z-query MSM) on its own goroutine, reading only the
// evaluated rows, and the witness lane (the A, B2, B1, K MSMs) on the
// calling goroutine, the only one to read the witness from here on. The
// join always waits for both — on an error in either, and on a panic,
// which resurfaces on the calling goroutine — so nothing outlives a
// failed prove. sc, when on, receives one span per prover phase, the
// quotient lane's on a lane of their own.
func prove(sys r1cs.Constraints, pk ProverKey, w *witnessSrc, rng io.Reader, sc obs.Scope) (*Proof, error) {
	if rng == nil {
		rng = rand.Reader
	}
	d := sys.Dims()
	if w.len() != d.NbWires {
		return nil, fmt.Errorf("groth16: witness has %d wires, system expects %d", w.len(), d.NbWires)
	}
	ev, err := pk.evalRows(sys, w, sc)
	if err != nil {
		return nil, err
	}
	defer ev.release()
	if err := pk.checkShape(d); err != nil {
		return nil, err
	}
	hdr := pk.header()

	rScalar, err := randFr(rng)
	if err != nil {
		return nil, err
	}
	sScalar, err := randFr(rng)
	if err != nil {
		return nil, err
	}

	sp := sc.Sub("prove/recode").Span()
	wExp := pk.prepWitness(w)
	sp.End()

	var (
		aJac, b1Jac, cJac, hMSM curve.G1Jac
		b2Jac                   curve.G2Jac
		quotientErr, witnessErr error
	)
	quotientLane := sc.OnLane(sc.Trace().NextLane())
	par.Do(func() {
		if testHookQuotientLane != nil {
			testHookQuotientLane(ev)
		}
		hMSM, quotientErr = pk.expZQuotient(ev, quotientLane)
	}, func() {
		if aJac, witnessErr = pk.expA(wExp, sc); witnessErr != nil {
			return
		}
		if b2Jac, witnessErr = pk.expB2(wExp, sc); witnessErr != nil {
			return
		}
		if b1Jac, witnessErr = pk.expB1(wExp, sc); witnessErr != nil {
			return
		}
		cJac, witnessErr = pk.expK(wExp, d.NbPublic, sc)
	})
	if witnessErr != nil {
		return nil, witnessErr
	}
	if quotientErr != nil {
		return nil, quotientErr
	}

	// A = α + Σ wⱼ·[uⱼ(τ)]₁ + r·δ
	var term curve.G1Jac
	var aAlpha curve.G1Jac
	aAlpha.FromAffine(&hdr.AlphaG1)
	aJac.AddAssign(&aAlpha)
	term.FromAffine(&hdr.DeltaG1)
	term.ScalarMul(&term, &rScalar)
	aJac.AddAssign(&term)

	// B2 = β + Σ wⱼ·[vⱼ(τ)]₂ + s·δ  (and its G1 shadow for C).
	var b2Beta curve.G2Jac
	b2Beta.FromAffine(&hdr.BetaG2)
	b2Jac.AddAssign(&b2Beta)
	var term2 curve.G2Jac
	term2.FromAffine(&hdr.DeltaG2)
	term2.ScalarMul(&term2, &sScalar)
	b2Jac.AddAssign(&term2)

	var b1Beta curve.G1Jac
	b1Beta.FromAffine(&hdr.BetaG1)
	b1Jac.AddAssign(&b1Beta)
	term.FromAffine(&hdr.DeltaG1)
	term.ScalarMul(&term, &sScalar)
	b1Jac.AddAssign(&term)

	// C = Σ_priv wⱼ·Kⱼ + Σ hᵢ·Zᵢ + s·A + r·B1 - r·s·δ, where h is the
	// quotient polynomial (A·B - C)/Z computed via coset FFTs.
	cJac.AddAssign(&hMSM)

	var sA curve.G1Jac
	sA.Set(&aJac)
	sA.ScalarMul(&sA, &sScalar)
	cJac.AddAssign(&sA)

	var rB curve.G1Jac
	rB.Set(&b1Jac)
	rB.ScalarMul(&rB, &rScalar)
	cJac.AddAssign(&rB)

	var rs fr.Element
	rs.Mul(&rScalar, &sScalar)
	term.FromAffine(&hdr.DeltaG1)
	term.ScalarMul(&term, &rs)
	term.Neg(&term)
	cJac.AddAssign(&term)

	proof := &Proof{}
	proof.Ar.FromJacobian(&aJac)
	proof.Bs.FromJacobian(&b2Jac)
	proof.Krs.FromJacobian(&cJac)
	return proof, nil
}

// setupWindowTerms bounds one QAP-accumulation row window: 64Ki terms
// keep the per-term product scratch at 2 MiB per matrix (the three
// matrices accumulate concurrently), whatever the circuit's size.
const setupWindowTerms = 1 << 16

// qapAccumulate adds Σ coeff·lag[row] into dst[wire] for every term of
// a matrix, walking it in row windows of at most maxTerms terms (a
// denser row is a window of its own): each window's per-term products
// run on par.Range into disjoint scratch slots, then a serial
// scatter-add folds them into the per-wire sums (wires repeat across
// rows, so the scatter cannot split without per-worker vectors). The
// walk is row-major, so every wire's sum is added in row order and the
// result does not depend on maxTerms.
func qapAccumulate(ms r1cs.MatrixStream, lag, dst []fr.Element, maxTerms int) error {
	win := &r1cs.RowWindow{}
	var prod []fr.Element
	for start, n := 0, ms.NbRows(); start < n; {
		end := ms.EndRowForTerms(start, maxTerms)
		if err := ms.LoadRows(win, start, end); err != nil {
			return err
		}
		nt := win.NbTerms()
		if cap(prod) < nt {
			prod = make([]fr.Element, nt)
		}
		p := prod[:nt]
		base := win.Offs[0]
		par.Range(win.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				l := &lag[win.Start+i]
				for k := win.Offs[i] - base; k < win.Offs[i+1]-base; k++ {
					p[k].Mul(&win.Dict[win.CoeffIdx[k]], l)
				}
			}
		})
		for k, wi := range win.Wires {
			dst[wi].Add(&dst[wi], &p[k])
		}
		start = end
	}
	return nil
}

// quotientVecs recycles the domain-sized working vectors of the row walk
// and the quotient pipeline across proofs: a long-lived prover (an
// engine proving from many goroutines) stops churning multi-MB
// allocations, and concurrent proofs over the same circuit share a
// small steady-state set.
var quotientVecs poly.VecPool

// quotient reduces the resident evaluation vectors to the coefficients
// of h(X) = (A(X)·B(X) - C(X))/Z(X), returning n-1 of them — a view of
// ev's first vector, valid until ev is released.
//
// A·w and B·w are carried to the coset g·H and multiplied there; C·w is
// only interpolated. Interpolating A·B back off the coset gives the
// degree-<n polynomial q ≡ a·b mod (X^n - g^n), which agrees with a·b at
// every coset point, where Z is the constant g^n - 1; so (q - c)/(g^n - 1)
// and h, both of degree < n, agree at n points and are the same
// coefficients. Field arithmetic is exact, so this is the vector the
// textbook form (C·w to the coset too, (A·B - C)/Z there, one
// interpolation) produces, bit for bit, for one transform fewer. The
// out-of-core quotient (quotientOOC) runs the same sequence.
//
// sc is the quotient lane's scope; when on, the pipeline records one
// span per stage (each transform with its per-level breakdown, the
// pointwise folds) under "quotient".
func quotient(ev *rowEvals, sc obs.Scope) ([]fr.Element, error) {
	domain, n := ev.domain, int(ev.domain.N)
	ab, b, c := ev.mem[0], ev.mem[1], ev.mem[2]

	q := sc.Sub("quotient")
	spAll := q.Span()
	defer spAll.End()

	toCoset := func(v []fr.Element, name string) {
		domain.IFFT(v, q.Sub("/ifft-").Sub(name))
		domain.FFTCoset(v, q.Sub("/fft-coset-").Sub(name))
	}

	toCoset(ab, "A")
	toCoset(b, "B")
	sp := q.Sub("/mul-ab").Span()
	par.Range(n, func(lo, hi int) {
		fr.MulVecInto(ab[lo:hi], ab[lo:hi], b[lo:hi])
	})
	sp.End()
	domain.IFFTCoset(ab, q.Sub("/ifft-coset"))
	domain.IFFT(c, q.Sub("/ifft-C"))

	zcInv := vanishingOnCosetInv(domain)
	sp = q.Sub("/divide-z").Span()
	par.Range(n, func(lo, hi int) {
		fr.SubScalarMulVecInto(ab[lo:hi], ab[lo:hi], c[lo:hi], &zcInv)
	})
	sp.End()

	// deg h ≤ n-2, so the top coefficient must vanish.
	if !ab[n-1].IsZero() {
		return nil, errQuotientDegree
	}
	return ab[:n-1], nil
}

// vanishingOnCosetInv returns 1/Z on the coset: Z(g·ωⁱ) is the non-zero
// constant g^n - 1.
func vanishingOnCosetInv(domain *poly.Domain) fr.Element {
	zc := domain.VanishingOnCoset()
	var inv fr.Element
	inv.Inverse(&zc)
	return inv
}

var errQuotientDegree = errors.New("groth16: quotient has unexpected degree; witness inconsistent")

// Verify checks a proof against the public inputs (the instance,
// excluding the constant wire; len must equal NbPublic-1): BatchVerify
// of one proof, which draws no randomness. A trailing obs.Scope records
// the IC multi-exponentiation and the pairing check as spans named
// under it (tr.Scope("") keeps the bare names).
func Verify(vk *VerifyingKey, proof *Proof, publicInputs []fr.Element, sc ...obs.Scope) error {
	return BatchVerify(vk, []*Proof{proof}, [][]fr.Element{publicInputs}, nil, sc...)
}

// randFr draws a uniform scalar, retrying the negligible zero case so
// toxic waste is always invertible.
func randFr(rng io.Reader) (fr.Element, error) {
	for {
		var e fr.Element
		if _, err := e.SetRandom(rng); err != nil {
			return e, err
		}
		if !e.IsZero() {
			return e, nil
		}
	}
}

// GTElement re-exports the target-group type for callers that want to
// cache e(α, β).
type GTElement = ext.E12

// PrecomputeAlphaBeta returns e(α, β), caching it — and the γ and δ line
// tables — on the key so subsequent Verify/BatchVerify/VerifyAggregate
// calls take the fast path. Keys produced by Setup or deserialized by
// ReadFrom arrive with the caches already populated; call this (before
// sharing the key across goroutines) for keys assembled by hand, or
// after changing a key's points.
func PrecomputeAlphaBeta(vk *VerifyingKey) GTElement {
	vk.precompute()
	return vk.AlphaBeta
}
