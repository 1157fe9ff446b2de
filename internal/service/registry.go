package service

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/core"
	"zkrownn/internal/diskfile"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs"
)

// modelRecord is one registered ownership circuit. The verifying key
// and public metadata persist to the registry directory; the circuit
// compiled at registration lives in memory only — after a restart the
// record still serves verification but needs re-registration before it
// can prove again.
type modelRecord struct {
	recordMeta

	VK *groth16.VerifyingKey

	// art pins the circuit compiled at registration — the compile-once
	// half of the prove path; nil on records restored from disk. Prove
	// jobs (registered model or suspect) never recompile: they bind an
	// input assignment and replay the compiled system's solver program.
	// CompiledSystem is immutable, so sharing it across concurrent jobs
	// is safe.
	art *core.Artifact
}

func (rec *modelRecord) canProve() bool { return rec.art != nil }

// assignmentFor resolves the input assignment for one prove job: the
// registration-time assignment for the registered model (all slots), or
// the suspects' weights rebound slot-by-slot onto the circuit compiled
// at registration. A nil entry keeps the registered model in that slot.
// No compilation happens here — architecture mismatches, a committed
// circuit and a wrong slot count surface as binding errors.
func (rec *modelRecord) assignmentFor(suspects []*nn.Network) (r1cs.Assignment, error) {
	if !rec.canProve() {
		return r1cs.Assignment{}, fmt.Errorf("model %s has no prove material (registered before a restart?); re-register it", rec.ID)
	}
	if len(suspects) == 0 {
		return rec.art.Assignment, nil
	}
	qs, err := core.QuantizeSuspects(rec.art, suspects)
	if err != nil {
		return r1cs.Assignment{}, err
	}
	asg, err := core.BindSuspectSlots(rec.art, qs)
	if err != nil {
		return r1cs.Assignment{}, fmt.Errorf("suspect model rejected for registered circuit %s: %w", rec.ID[:12], err)
	}
	return asg, nil
}

// verdict reads one instance under the record's claim spec. A committed
// record holds it to the digest pinned at registration, which persists
// with the metadata: the binding holds on records restored after a
// restart, and a proof about another model — even one sharing the
// architecture — fails it.
func (rec *modelRecord) verdict(public []fr.Element) ([]bool, error) {
	if !rec.Committed {
		return rec.Verdict(public, nil)
	}
	b, err := hex.DecodeString(rec.CommittedDigest)
	if err != nil || len(b) != fr.Bytes {
		return nil, errors.New("registered record carries no committed digest; re-register the model")
	}
	var digest fr.Element
	digest.SetBytes(b)
	return rec.Verdict(public, &digest)
}

func (rec *modelRecord) info() ModelInfo {
	return ModelInfo{
		ModelID:         rec.ID,
		Name:            rec.Name,
		Committed:       rec.Committed,
		BundleSlots:     max(rec.Slots, 1),
		FracBits:        rec.FracBits,
		MaxErrors:       rec.MaxErrors,
		Constraints:     rec.Constraints,
		PublicInputs:    rec.PublicInputs,
		CreatedAt:       rec.CreatedAt.UTC().Format(time.RFC3339),
		CanProve:        rec.canProve(),
		FalseClaimBound: rec.falseClaimBound(),
	}
}

// falseClaimBound is Spec.FalseClaimBound at the registered key's
// signature length; 0 (omitted) on records written before the length
// was kept.
func (rec *modelRecord) falseClaimBound() float64 {
	if rec.SignatureBits == 0 {
		return 0
	}
	return rec.FalseClaimBound(rec.SignatureBits)
}

// recordMeta is the persisted (public) half of a record: its claim
// spec, plus what registration derived from it. Records written before
// bundles carry no bundle_slots (Spec.Slots 0 reads as one slot).
type recordMeta struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	core.Spec
	// CommittedDigest is the hex Fiat-Shamir digest binding committed
	// proofs to the registered model; it persists so the binding check
	// survives restarts (the model itself does not).
	CommittedDigest string `json:"committed_digest,omitempty"`
	LayerIndex      int    `json:"layer_index"`
	// SignatureBits is the registered key's signature length N, what
	// the claim's max_errors is out of.
	SignatureBits int       `json:"signature_bits,omitempty"`
	Constraints   int       `json:"constraints"`
	PublicInputs  int       `json:"public_inputs"`
	CreatedAt     time.Time `json:"created_at"`
}

// registry maps circuit digests to registered models. The digest of an
// extraction circuit names its watermark key, so every key registered
// on a model is a record of its own, with its own setup and VK. When
// dir is non-empty, verifying keys (binary WriteTo format, <id>.vk) and
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
	return &modelRecord{recordMeta: meta, VK: vk}, nil
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
	metaBytes, err := json.MarshalIndent(rec.recordMeta, "", "  ")
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
