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

// KeyPair bundles the Groth16 keys produced by one trusted setup. In
// in-memory mode PK is populated; in streamed (out-of-core) mode PK is
// nil and Stream serves the same material from disk. Exactly one of the
// two is non-nil; VK is always resident.
type KeyPair struct {
	PK *groth16.ProvingKey
	VK *groth16.VerifyingKey
	// Stream is the disk-backed proving key used when the engine's
	// memory budget ruled out materializing PK.
	Stream *groth16.StreamedProvingKey
	// CSFile, when non-nil, is the disk-resident constraint system the
	// keys were set up from: the memory budget ruled out keeping the CSR
	// matrices (and the solved witness) resident too, so proves stream
	// constraint rows from this file and spill the witness to disk. Like
	// Stream, it shares the cache entry's lifetime.
	CSFile *r1cs.CompiledSystemFile
}

// Streamed reports whether the proving key is disk-backed.
func (kp *KeyPair) Streamed() bool { return kp.Stream != nil }

// Spilled reports whether proves also stream the constraint system
// from disk and spill the solver tape (full out-of-core mode).
func (kp *KeyPair) Spilled() bool { return kp.CSFile != nil }

// PKSizeBytes returns the serialized size of the proving key in
// whichever backend holds it: the compressed WriteTo size for an
// in-memory key, the raw on-disk size for a streamed one.
func (kp *KeyPair) PKSizeBytes() int64 {
	switch {
	case kp.PK != nil:
		return kp.PK.SizeBytes()
	case kp.Stream != nil:
		return kp.Stream.SizeBytes()
	}
	return 0
}

// keyCache is the in-memory tier: a circuit-digest-keyed LRU of Groth16
// key pairs, bounded by entry count (proving keys run to tens of MB at
// paper scale). The disk tier — loadKeys and Engine.setup below — is
// what survives a restart.
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
// With stream the proving key is indexed in place and its file stays
// open behind the returned key for the key's lifetime (every prove reads
// through it; the descriptor is reclaimed by the runtime finalizer once
// the cache entry is evicted and collected). Otherwise it is read whole:
// the raw encoding costs a linear pass of cheap field decodings instead
// of one modular square root per point, which would otherwise make a
// disk hit slower than re-running setup for small circuits. The
// directory is the operator's own material, so the weaker G2 checks of
// the raw format are acceptable.
func loadKeys(dir, digest string, stream bool) (*KeyPair, error) {
	kp := &KeyPair{VK: new(groth16.VerifyingKey)}
	vkf, vkr, err := diskfile.OpenFramed(keyPath(dir, digest, ".vk"), keyFileMagic)
	if err != nil {
		return nil, err
	}
	_, err = kp.VK.ReadFrom(bufio.NewReader(vkr))
	vkf.Close()
	if err != nil {
		return nil, err
	}
	return kp, kp.openPK(dir, digest, stream)
}

// openPK attaches the digest's persisted proving key to kp: as
// kp.Stream, or decoded into kp.PK.
func (kp *KeyPair) openPK(dir, digest string, stream bool) error {
	f, r, err := diskfile.OpenFramed(keyPath(dir, digest, ".pk"), keyFileMagic)
	if err != nil {
		return err
	}
	if stream {
		if kp.Stream, err = groth16.OpenStreamedProvingKey(r); err != nil {
			f.Close()
			return err
		}
		kp.Stream.SpillDir = dir
		return nil
	}
	defer f.Close()
	kp.PK = new(groth16.ProvingKey)
	_, err = kp.PK.ReadRawFrom(bufio.NewReaderSize(r, 1<<20))
	return err
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

// setup runs trusted setup for the chosen residency and persists what it
// made. In memory (stream false) the keys are written through to
// CacheDir when one is configured. Streamed, the proving key is spilled
// straight into its framed cache file — never materialized in RAM — and
// indexed from there; with spill the constraint system goes out-of-core
// first, setup streams its QAP accumulation from the CSR file, and the
// returned KeyPair carries the open handle for proves to share.
// persistErr is a best-effort persistence failure that leaves the keys
// fully usable; err is fatal.
func (e *Engine) setup(sys *r1cs.CompiledSystem, digest string, stream, spill bool, rng io.Reader) (kp *KeyPair, persistErr, err error) {
	if !stream {
		pk, vk, err := groth16.Setup(sys, rng)
		if err != nil {
			return nil, nil, err
		}
		if dir := e.opts.CacheDir; dir != "" {
			if persistErr = writeKeyFile(keyPath(dir, digest, ".pk"), pk.WriteRawTo); persistErr == nil {
				persistErr = writeKeyFile(keyPath(dir, digest, ".vk"), vk.WriteTo)
			}
		}
		return &KeyPair{PK: pk, VK: vk}, persistErr, nil
	}
	dir, err := e.streamKeyDir()
	if err != nil {
		return nil, nil, err
	}
	kp = new(KeyPair)
	var cons r1cs.Constraints = sys
	if spill {
		if kp.CSFile, err = e.ensureCSFile(sys, digest); err != nil {
			return nil, nil, err
		}
		cons = kp.CSFile
	}
	err = writeKeyFile(keyPath(dir, digest, ".pk"), func(w io.Writer) (n int64, err error) {
		kp.VK, err = groth16.SetupStreamed(cons, rng, w)
		return 0, err
	})
	if err == nil {
		err = kp.openPK(dir, digest, true)
	}
	if err != nil {
		if kp.CSFile != nil {
			kp.CSFile.Close()
		}
		return nil, nil, fmt.Errorf("engine: streamed setup: %w", err)
	}
	return kp, writeKeyFile(keyPath(dir, digest, ".vk"), kp.VK.WriteTo), nil
}
