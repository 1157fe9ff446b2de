package engine

import (
	"bufio"
	"container/list"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"zkrownn/internal/diskfile"
	"zkrownn/internal/groth16"
	"zkrownn/internal/r1cs"
)

// KeyPair bundles the Groth16 keys produced by one trusted setup with
// the residency plan they were made under. VK is always resident; PK is
// the proving key in the form the plan chose — a *groth16.ProvingKey when
// Plan.Residency is Resident, out-of-core a *groth16.StreamedProvingKey
// over the raw key file, open for the cache entry's lifetime.
type KeyPair struct {
	VK   *groth16.VerifyingKey
	PK   groth16.ProverKey
	Plan Plan
	// cons is what proves read constraint rows from: the compiled system
	// the keys were set up for, or out-of-core its CSR section file (open,
	// like a streamed key, for the entry's lifetime).
	cons r1cs.Constraints
}

// keyCache is the in-memory tier: a circuit-digest-keyed LRU of Groth16
// key pairs, bounded by entry count (proving keys run to tens of MB at
// paper scale). The disk tier — Engine.loadKeys and Engine.setup below —
// is what survives a restart.
//
// Each entry also retains the compiled constraint system the keys were
// set up for: key and circuit share a lifetime (both are functions of
// the digest), so solve-many callers can address the circuit by digest
// without re-sending the CSR matrices. The circuit is memory-only — the
// disk tier persists keys, and a disk hit re-attaches whatever compiled
// system the triggering request carried.
type keyCache struct {
	mu      sync.Mutex
	maxSize int
	order   *list.List
	entries map[string]*list.Element
}

type cacheEntry struct {
	digest string
	keys   *KeyPair
	cs     *r1cs.CompiledSystem
}

func newKeyCache(maxSize int) *keyCache {
	return &keyCache{
		maxSize: maxSize,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the key pair for a digest, attaching cs (when non-nil) to
// the entry so later digest-only requests can find the circuit.
func (c *keyCache) get(digest string, cs *r1cs.CompiledSystem) (*KeyPair, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		if entry.cs == nil {
			entry.cs = cs
		}
		return entry.keys, true
	}
	return nil, false
}

// circuit returns the compiled system cached beside the keys for a
// digest, without disturbing the LRU order more than a lookup must.
func (c *keyCache) circuit(digest string) (*r1cs.CompiledSystem, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		if cs := el.Value.(*cacheEntry).cs; cs != nil {
			return cs, true
		}
	}
	return nil, false
}

// put stores (or refreshes) the entry for a digest, evicting the least
// recently used one past the bound.
func (c *keyCache) put(digest string, keys *KeyPair, cs *r1cs.CompiledSystem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		entry.keys = keys
		if cs != nil {
			entry.cs = cs
		}
		return
	}
	el := c.order.PushFront(&cacheEntry{digest: digest, keys: keys, cs: cs})
	c.entries[digest] = el
	for c.maxSize > 0 && c.order.Len() > c.maxSize {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).digest)
	}
}

// len reports the number of in-memory entries.
func (c *keyCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// clear drops every in-memory entry (the disk tier is untouched).
func (c *keyCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

// keyFileMagic frames the disk tier's key files: <digest>.pk, the raw
// (uncompressed) proving key, and <digest>.vk, the compressed verifying
// key.
var keyFileMagic = [4]byte{'Z', 'K', 'F', '1'}

// keyPath is where the disk tier keeps a digest's file of one kind
// (".pk", ".vk", ".csr").
func keyPath(dir, digest, ext string) string { return filepath.Join(dir, digest+ext) }

// loadKeys is the disk tier's one loader. Both files are fully validated
// against their integrity frames before a byte is trusted, and any
// failure — missing, truncated, corrupt, unparsable — is an error the
// caller treats as a miss: it re-runs setup and overwrites the files.
// Out-of-core the CSR section file rides beside the key files; a missing
// or corrupt one is rewritten from sys, and when it cannot be (a
// solver-only sys, a dead disk) the load fails like any other — a KeyPair
// is returned only complete. The directory is the operator's
// own material, so the weaker G2 checks of the raw format are acceptable.
func (e *Engine) loadKeys(dir, digest string, sys *r1cs.CompiledSystem, plan Plan) (*KeyPair, error) {
	kp := &KeyPair{VK: new(groth16.VerifyingKey), Plan: plan}
	vkf, vkr, err := diskfile.OpenFramed(keyPath(dir, digest, ".vk"), keyFileMagic)
	if err != nil {
		return nil, err
	}
	_, err = kp.VK.ReadFrom(bufio.NewReader(vkr))
	vkf.Close()
	if err != nil {
		return nil, err
	}
	if kp.cons, err = e.constraints(sys, digest, plan); err != nil {
		return nil, err
	}
	if kp.PK, err = openPK(dir, digest, plan); err != nil {
		closeConstraints(kp.cons)
		return nil, err
	}
	return kp, nil
}

// closeConstraints releases a CSR section file a failed load or setup
// opened; a resident system has nothing to close.
func closeConstraints(cons r1cs.Constraints) {
	if c, ok := cons.(io.Closer); ok {
		c.Close()
	}
}

// openPK opens the digest's persisted proving key in the form plan
// asks for. The raw file is always indexed in place; a resident plan then
// reads it whole — a linear pass of cheap field decodings instead of the
// compressed format's square root per point, which would make a disk hit
// slower than re-running setup for small circuits — and an out-of-core
// plan keeps the file open behind the returned key (every prove reads
// through it; the descriptor is reclaimed by the runtime finalizer once
// the cache entry is evicted and collected).
func openPK(dir, digest string, plan Plan) (groth16.ProverKey, error) {
	f, r, err := diskfile.OpenFramed(keyPath(dir, digest, ".pk"), keyFileMagic)
	if err != nil {
		return nil, err
	}
	spk, err := groth16.OpenStreamedProvingKey(r)
	if err != nil {
		f.Close()
		return nil, err
	}
	if plan.Residency == OutOfCore {
		spk.SpillDir = dir
		return spk, nil // f stays open behind spk
	}
	defer f.Close()
	return spk.Load()
}

// writeKeyFile publishes one framed key file through diskfile: atomic,
// fsynced, so a crash never leaves a partial key and a later corruption
// is caught at load time.
func writeKeyFile(path string, encode func(io.Writer) (int64, error)) error {
	_, err := diskfile.WriteFramed(path, keyFileMagic, func(w io.Writer) error {
		_, err := encode(w)
		return err
	})
	return err
}

// setup runs trusted setup under plan and persists what it made.
// Resident, the keys are written through to CacheDir when one is
// configured. Out-of-core the constraint system goes to disk first, setup
// streams its QAP accumulation from the CSR file proves will share, and
// the proving key is spilled straight into its framed cache file — never
// materialized in RAM — and indexed from there. persistErr is a
// best-effort persistence failure that leaves the keys fully usable; err
// is fatal.
func (e *Engine) setup(sys *r1cs.CompiledSystem, digest string, plan Plan, rng io.Reader) (kp *KeyPair, persistErr, err error) {
	kp = &KeyPair{Plan: plan}
	if kp.cons, err = e.constraints(sys, digest, plan); err != nil {
		return nil, nil, err
	}
	if plan.Residency == Resident {
		pk, vk, err := groth16.Setup(kp.cons, rng)
		if err != nil {
			return nil, nil, err
		}
		kp.PK, kp.VK = pk, vk
		if e.opts.CacheDir != "" {
			var dir string
			if dir, persistErr = e.keyDir(); persistErr == nil {
				if persistErr = writeKeyFile(keyPath(dir, digest, ".pk"), pk.WriteRawTo); persistErr == nil {
					persistErr = writeKeyFile(keyPath(dir, digest, ".vk"), vk.WriteTo)
				}
			}
		}
		return kp, persistErr, nil
	}
	dir, err := e.keyDir()
	if err == nil {
		err = writeKeyFile(keyPath(dir, digest, ".pk"), func(w io.Writer) (n int64, err error) {
			kp.VK, err = groth16.SetupStreamed(kp.cons, rng, w)
			return 0, err
		})
	}
	if err == nil {
		kp.PK, err = openPK(dir, digest, plan)
	}
	if err != nil {
		closeConstraints(kp.cons)
		return nil, nil, fmt.Errorf("engine: streamed setup: %w", err)
	}
	return kp, writeKeyFile(keyPath(dir, digest, ".vk"), kp.VK.WriteTo), nil
}
