package cellcache

// Engine is the storage boundary of the cell cache: a flat key→value
// store of opaque bytes. Two implementations ship — Memory (bounded
// LRU) and Pairtree (one file per entry under fanned-out hash-prefix
// directories) — and wrappers (Faulty, Remote) slot in behind the same
// six methods without touching the Cache front or any HTTP handler.
//
// Engines know nothing about compression, TTL, or tenancy: the Cache
// front frames every value (codec byte + expiry + payload, see
// codec.go) before it reaches an engine, and prefixes keys with the
// tenant namespace. Values handed to Put are owned by the engine;
// slices returned by Get are shared and must not be modified.
//
// Semantics every engine must honor (enforced by the conformance
// suite in conformance_test.go):
//
//   - Put is an upsert: the last write for a key wins, including
//     across a restart for a persistent engine.
//   - Get of a corrupted entry is a miss, never an error: a persistent
//     engine verifies checksums and drops damaged entries.
//   - Delete is idempotent; deleting a missing key is a no-op.
//   - Keys iterates a point-in-time snapshot of the key set (used for
//     startup TTL scans); yield returning false stops the walk.
type Engine interface {
	// Get returns the stored bytes for key. The slice is shared;
	// callers must not modify it.
	Get(key string) ([]byte, bool)
	// Put stores val under key, replacing any previous value.
	Put(key string, val []byte) error
	// Delete removes key if present.
	Delete(key string)
	// Len reports the number of stored entries.
	Len() int
	// Keys calls yield for each stored key (snapshot order is
	// unspecified) until the keys run out or yield returns false.
	Keys(yield func(key string) bool)
	// Close releases the engine's resources. The engine must not be
	// used afterwards.
	Close() error
}

// Key and value bounds of the persistent engine and the frame codec.
// Keys are namespace-prefixed fingerprints (well under 1 KiB); values
// are framed serialized SweepResults.
const (
	maxKeyLen = 1 << 10
	maxValLen = 1 << 30
)
