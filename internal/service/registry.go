package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zkrownn/internal/core"
	"zkrownn/internal/diskfile"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/watermark"
)

// modelRecord is one registered ownership circuit. The verifying key
// and public metadata persist to the registry directory; the prove
// material (the owner's model and watermark key) lives in memory only —
// after a restart the record still serves verification but needs
// re-registration before it can prove again.
type modelRecord struct {
	ID        string
	Name      string
	Committed bool
	// Slots is the number of suspect-model claim slots the registered
	// circuit carries (1 for plain registrations; K for bundle_slots=K,
	// where one prove job attests K claims with one proof).
	Slots        int
	FracBits     int
	MaxErrors    int
	LayerIndex   int
	Constraints  int
	PublicInputs int
	CreatedAt    time.Time
	// CommittedDigest is the hex Fiat-Shamir digest binding committed-
	// mode proofs to the registered model. Persisted with the metadata so
	// the binding check survives restarts (the model itself does not).
	CommittedDigest string

	VK *groth16.VerifyingKey

	// Prove material; nil on records restored from disk.
	model *nn.Network
	key   *watermark.Key
	quant *nn.QuantizedNetwork
	// art pins the circuit compiled at registration — the compile-once
	// half of the prove path. Prove jobs (registered model or suspect)
	// never recompile: they bind an input assignment and replay the
	// compiled system's solver program. CompiledSystem is immutable, so
	// sharing it across concurrent jobs is safe.
	art *core.Artifact
}

func (rec *modelRecord) canProve() bool { return rec.model != nil && rec.key != nil && rec.art != nil }

// slotCount normalizes the persisted slot field (records written before
// bundle support carry 0).
func (rec *modelRecord) slotCount() int {
	if rec.Slots < 1 {
		return 1
	}
	return rec.Slots
}

func (rec *modelRecord) params() fixpoint.Params {
	return fixpoint.Params{FracBits: rec.FracBits, MagBits: 44}
}

// compile builds the record's extraction circuit once, at registration
// time. The resulting artifact's digest becomes the record ID. A
// multi-slot record compiles the batched circuit: every bundle job
// afterwards only rebinds slot inputs and replays the solver program.
func (rec *modelRecord) compile() (*core.Artifact, error) {
	if rec.model == nil || rec.key == nil || rec.quant == nil {
		return nil, fmt.Errorf("model record has no prove material")
	}
	ck := core.QuantizeKey(rec.key, rec.params())
	if rec.Committed {
		return core.CommittedExtractionCircuit(rec.quant, ck, rec.MaxErrors)
	}
	return core.BatchedExtractionCircuit(rec.quant, ck, rec.MaxErrors, rec.slotCount())
}

// assignmentFor resolves the input assignment for one prove job: the
// registration-time assignment for the registered model (all slots), or
// the suspects' weights rebound slot-by-slot onto the circuit compiled
// at registration. A nil entry keeps the registered model in that slot.
// No compilation happens here — architecture mismatches surface as
// binding errors.
func (rec *modelRecord) assignmentFor(suspects []*nn.Network) (r1cs.Assignment, error) {
	if !rec.canProve() {
		return r1cs.Assignment{}, fmt.Errorf("model %s has no prove material (registered before a restart?); re-register it", rec.ID)
	}
	if len(suspects) == 0 {
		return rec.art.Assignment, nil
	}
	if rec.Committed {
		// Committed circuits bake ρ = H(weights) into the constraint
		// coefficients, so ANY weight change would be a different
		// circuit: committed proofs are bound to the registered model by
		// construction.
		return r1cs.Assignment{}, fmt.Errorf("committed circuits are bound to the registered model; register the suspect model itself (circuit %s)", rec.ID[:12])
	}
	if len(suspects) != rec.slotCount() {
		return r1cs.Assignment{}, fmt.Errorf("bundle carries %d suspect models, circuit %s has %d claim slots", len(suspects), rec.ID[:12], rec.slotCount())
	}
	qs := make([]*nn.QuantizedNetwork, len(suspects))
	for i, suspect := range suspects {
		if suspect == nil {
			continue
		}
		q, err := nn.Quantize(suspect, rec.params())
		if err != nil {
			return r1cs.Assignment{}, err
		}
		qs[i] = q
	}
	// BindSuspectSlots enforces full architecture equality against the
	// shapes pinned in the artifact at compile time.
	asg, err := core.BindSuspectSlots(rec.art, qs)
	if err != nil {
		return r1cs.Assignment{}, fmt.Errorf("suspect model rejected for registered circuit %s: %w", rec.ID[:12], err)
	}
	return asg, nil
}

func (rec *modelRecord) info() ModelInfo {
	return ModelInfo{
		ModelID:      rec.ID,
		Name:         rec.Name,
		Committed:    rec.Committed,
		BundleSlots:  rec.slotCount(),
		FracBits:     rec.FracBits,
		MaxErrors:    rec.MaxErrors,
		Constraints:  rec.Constraints,
		PublicInputs: rec.PublicInputs,
		CreatedAt:    rec.CreatedAt.UTC().Format(time.RFC3339),
		CanProve:     rec.canProve(),
	}
}

// recordMeta is the persisted (public) half of a record.
type recordMeta struct {
	ID              string    `json:"id"`
	Name            string    `json:"name,omitempty"`
	Committed       bool      `json:"committed,omitempty"`
	CommittedDigest string    `json:"committed_digest,omitempty"`
	BundleSlots     int       `json:"bundle_slots,omitempty"`
	FracBits        int       `json:"frac_bits"`
	MaxErrors       int       `json:"max_errors"`
	LayerIndex      int       `json:"layer_index"`
	Constraints     int       `json:"constraints"`
	PublicInputs    int       `json:"public_inputs"`
	CreatedAt       time.Time `json:"created_at"`
}

// registry maps circuit digests to registered models. When dir is
// non-empty, verifying keys (binary WriteTo format, <id>.vk) and
// metadata (<id>.json) write through to disk and are restored on
// startup.
type registry struct {
	dir string
	log *slog.Logger

	mu      sync.RWMutex
	records map[string]*modelRecord
}

func newRegistry(dir string, log *slog.Logger) (*registry, error) {
	r := &registry{dir: dir, log: log, records: make(map[string]*modelRecord)}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: registry dir: %w", err)
	}
	if err := r.restore(); err != nil {
		return nil, err
	}
	return r, nil
}

// restore loads every persisted record. Corrupt entries are skipped
// (they only cost a re-registration), not fatal — but loudly: a
// vanished record means 404s for verifiers who relied on the
// persisted VK, so the operator must hear about it.
func (r *registry) restore() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("service: registry dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		rec, err := r.loadRecord(id)
		if err != nil {
			r.log.Warn("registry: skipping corrupt record", "model_id", id, "err", err.Error())
			continue
		}
		r.records[rec.ID] = rec
	}
	return nil
}

func (r *registry) loadRecord(id string) (*modelRecord, error) {
	metaBytes, err := os.ReadFile(filepath.Join(r.dir, id+".json"))
	if err != nil {
		return nil, err
	}
	var meta recordMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, err
	}
	if meta.ID != id {
		return nil, fmt.Errorf("service: registry meta %s names id %s", id, meta.ID)
	}
	f, err := os.Open(filepath.Join(r.dir, id+".vk"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vk := new(groth16.VerifyingKey)
	if _, err := vk.ReadFrom(bufio.NewReader(f)); err != nil {
		return nil, err
	}
	return &modelRecord{
		ID:              meta.ID,
		Name:            meta.Name,
		Committed:       meta.Committed,
		CommittedDigest: meta.CommittedDigest,
		Slots:           meta.BundleSlots,
		FracBits:        meta.FracBits,
		MaxErrors:       meta.MaxErrors,
		LayerIndex:      meta.LayerIndex,
		Constraints:     meta.Constraints,
		PublicInputs:    meta.PublicInputs,
		CreatedAt:       meta.CreatedAt,
		VK:              vk,
	}, nil
}

// put registers (or refreshes) a record, persisting the verifying key
// and metadata when a directory is configured. It reports whether the
// digest was already present.
func (r *registry) put(rec *modelRecord) (existed bool, err error) {
	r.mu.Lock()
	_, existed = r.records[rec.ID]
	r.records[rec.ID] = rec
	r.mu.Unlock()

	if r.dir == "" {
		return existed, nil
	}
	if err := diskfile.Write(filepath.Join(r.dir, rec.ID+".vk"), func(w io.Writer) error {
		_, err := rec.VK.WriteTo(w)
		return err
	}); err != nil {
		return existed, fmt.Errorf("service: persist vk: %w", err)
	}
	meta := recordMeta{
		ID:              rec.ID,
		Name:            rec.Name,
		Committed:       rec.Committed,
		CommittedDigest: rec.CommittedDigest,
		BundleSlots:     rec.Slots,
		FracBits:        rec.FracBits,
		MaxErrors:       rec.MaxErrors,
		LayerIndex:      rec.LayerIndex,
		Constraints:     rec.Constraints,
		PublicInputs:    rec.PublicInputs,
		CreatedAt:       rec.CreatedAt,
	}
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return existed, err
	}
	if err := diskfile.Write(filepath.Join(r.dir, rec.ID+".json"), func(w io.Writer) error {
		_, err := w.Write(metaBytes)
		return err
	}); err != nil {
		return existed, fmt.Errorf("service: persist meta: %w", err)
	}
	return existed, nil
}

func (r *registry) get(id string) (*modelRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.records[id]
	return rec, ok
}

func (r *registry) list() []*modelRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*modelRecord, 0, len(r.records))
	for _, rec := range r.records {
		out = append(out, rec)
	}
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}
