package main

import (
	"math/rand"
	"sync"

	"zkrownn"
)

// shape is the extraction circuit every workload proves: a dense
// in×hidden layer + ReLU read by Algorithm 1 with a bits-wide signature
// over `triggers` trigger inputs. maxErrors equals bits, so an
// untrained model's claim bit is 1 and the whole verification path —
// including the claim check — runs on every op.
type shape struct {
	in, hidden, bits, triggers int
}

var (
	// benchShape: 29,306 constraints, 33,818 wires, 4,130 public inputs,
	// FFT domain 2^15. Chosen so that every workload fits ≥ 6 timed ops
	// and three set-ups into one contract-sized run on two cores; the
	// README records what the default-tier shape (196×64, 32 bits) costs.
	benchShape = shape{in: 128, hidden: 32, bits: 16, triggers: 2}
	// smokeShape keeps `go test` in seconds.
	smokeShape = shape{in: 32, hidden: 16, bits: 8, triggers: 2}
)

const classes = 10

// inputs holds everything a workload feeds the program, all derived
// from the seed: the owner's model and watermark key plus the stream
// that later draws suspects and request schedules.
type inputs struct {
	shape shape
	seed  int64
	rng   *rand.Rand
	model *zkrownn.Model
	key   *zkrownn.WatermarkKey
}

func newInputs(seed int64, sh shape) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{shape: sh, seed: seed, rng: rng}
	in.model = zkrownn.NewMLP(sh.in, []int{sh.hidden}, classes, rng)
	in.key = newKey(sh, rng)
	return in
}

// newKey builds the watermark key directly at the shape's dimensions
// (SyntheticMNIST is fixed at 784 inputs): uniform triggers, a Gaussian
// projection, a random signature.
func newKey(sh shape, rng *rand.Rand) *zkrownn.WatermarkKey {
	k := &zkrownn.WatermarkKey{LayerIndex: 1}
	for t := 0; t < sh.triggers; t++ {
		x := make([]float64, sh.in)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		k.Triggers = append(k.Triggers, x)
	}
	k.A = make([][]float64, sh.hidden)
	for i := range k.A {
		k.A[i] = make([]float64, sh.bits)
		for j := range k.A[i] {
			k.A[i][j] = rng.NormFloat64()
		}
	}
	k.Signature = make([]int, sh.bits)
	for i := range k.Signature {
		k.Signature[i] = rng.Intn(2)
	}
	return k
}

// suspect draws a fresh same-architecture model and quantizes it.
func (in *inputs) suspect() (*zkrownn.QuantizedModel, error) {
	m := zkrownn.NewMLP(in.shape.in, []int{in.shape.hidden}, classes, in.rng)
	return zkrownn.Quantize(m, zkrownn.DefaultFixedPoint)
}

// Request classes of the verify-serve mix.
const (
	classCommitted = iota // constant-size instance: three pairings
	classPublic           // weights are public inputs: IC multi-exp + a large body
	classTampered         // must be rejected
	numClasses
)

var className = [numClasses]string{"committed", "public", "tampered"}

// request is one entry of the verify-serve schedule.
type request struct {
	class int
	// committedModel selects which registration a tampered request
	// targets; honest requests follow their class.
	committedModel bool
	// proof indexes the model's proof pool.
	proof int
	// forgeProof negates the proof's A point (a well-formed proof that
	// fails the pairing check); otherwise the instance is perturbed.
	forgeProof bool
}

// scheduleBlock is the stratum of the verify-serve schedule: every run
// of 40 requests holds exactly 8 public-instance, 30 committed and 2
// tampered ones, so any stretch of the schedule — a timed slice ends
// wherever the clock says — carries the same 20/75/5 mix and the same
// bytes, and throughput does not move with where it was cut.
const scheduleBlock = 40

// newSchedule draws n requests (rounded up to whole blocks) in a seeded
// order. Of a block's two tampered requests one targets each
// registration, and which of them forges the proof and which perturbs
// the instance alternates from block to block. Clients walk the
// schedule round-robin.
func newSchedule(rng *rand.Rand, n, pool int) []request {
	var out []request
	for b := 0; len(out) < n; b++ {
		block := make([]request, 0, scheduleBlock)
		for i := 0; i < 8; i++ {
			block = append(block, request{class: classPublic})
		}
		for i := 0; i < 30; i++ {
			block = append(block, request{class: classCommitted, committedModel: true})
		}
		block = append(block,
			request{class: classTampered, committedModel: true, forgeProof: b%2 == 0},
			request{class: classTampered, committedModel: false, forgeProof: b%2 == 1})
		for i := range block {
			block[i].proof = rng.Intn(pool)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// lockedRand makes a seeded math/rand stream usable as the engine's
// randomness source, which the service reads from several prove
// workers at once.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Read(p)
}
