package cellcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Pairtree is the sharded-directory persistent engine: one file per
// entry, fanned out under two levels of hash-prefix directories
// (HashStash's pairtree layout):
//
//	root/ab/cd/<sha256(key)[4:]>.cell
//
// where ab/cd are the first four hex digits of the key's SHA-256.
// Each file is self-describing and self-verifying:
//
//	"spt1" | u32 keyLen | u32 valLen | key | val | u32 crc32(key|val)
//
// little-endian. Writes go to a temp file in root and rename into
// place, so a crash mid-write leaves either the old entry or none —
// never a torn one — and an upsert is atomic. There is no global file
// to rewrite or scan on eviction: Delete removes one file, and startup
// only counts entries, so huge caches open fast and evicting one
// tenant's cells never touches another's.
type Pairtree struct {
	root string

	mu    sync.Mutex // serializes Put/Delete bookkeeping; Gets are lock-free
	count int
}

const (
	pairtreeMagic  = "spt1"
	pairtreeSuffix = ".cell"
	pairtreeHdr    = 4 + 8 // magic + two u32 lengths
)

// OpenPairtree opens (creating if needed) the pairtree rooted at dir
// and counts the existing entries. Files are not verified at open —
// corruption is detected (and the file dropped) on first Get.
func OpenPairtree(dir string) (*Pairtree, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	p := &Pairtree{root: dir}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), pairtreeSuffix) {
			p.count++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// path fans the key's hash out over two directory levels so no single
// directory grows unboundedly (65536 leaf dirs at full fanout).
func (p *Pairtree) path(key string) string {
	h := sha256.Sum256([]byte(key))
	hh := hex.EncodeToString(h[:])
	return filepath.Join(p.root, hh[:2], hh[2:4], hh[4:]+pairtreeSuffix)
}

// parseEntry validates one entry file's framing, checksum, and stored
// key, returning the value bytes.
func parseEntry(raw []byte, key string) ([]byte, bool) {
	if len(raw) < pairtreeHdr+4 || string(raw[:4]) != pairtreeMagic {
		return nil, false
	}
	keyLen := binary.LittleEndian.Uint32(raw[4:8])
	valLen := binary.LittleEndian.Uint32(raw[8:12])
	if keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen ||
		int64(len(raw)) != int64(pairtreeHdr)+int64(keyLen)+int64(valLen)+4 {
		return nil, false
	}
	body := raw[pairtreeHdr : len(raw)-4]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, false
	}
	if key != "" && string(body[:keyLen]) != key {
		return nil, false
	}
	return body[keyLen:], true
}

// Get reads and verifies the entry's file. A corrupted file (bad
// magic, framing, checksum, or key) is removed and reported as a miss.
func (p *Pairtree) Get(key string) ([]byte, bool) {
	raw, err := os.ReadFile(p.path(key))
	if err != nil {
		return nil, false
	}
	val, ok := parseEntry(raw, key)
	if !ok {
		p.Delete(key)
		return nil, false
	}
	return val, true
}

// Put atomically writes the entry: temp file in root, then rename into
// its fanout directory.
func (p *Pairtree) Put(key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("invalid cache key length %d", len(key))
	}
	if len(val) > maxValLen {
		return errors.New("cache value too large for the pairtree engine")
	}
	rec := make([]byte, pairtreeHdr+len(key)+len(val)+4)
	copy(rec, pairtreeMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(val)))
	copy(rec[pairtreeHdr:], key)
	copy(rec[pairtreeHdr+len(key):], val)
	sum := crc32.ChecksumIEEE(rec[pairtreeHdr : len(rec)-4])
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], sum)

	dst := p.path(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(p.root, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(rec); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// The rename only makes the entry durable if the data reached the
	// platter first — fsync before rename, then fsync the parent
	// directory so the rename itself survives a power cut. Without
	// both, a crash can leave a named file with garbage (or no) blocks.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	existed := false
	if _, err := os.Lstat(dst); err == nil {
		existed = true
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if dir, err := os.Open(filepath.Dir(dst)); err == nil {
		dir.Sync()
		dir.Close()
	}
	if !existed {
		p.count++
	}
	return nil
}

func (p *Pairtree) Delete(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := os.Remove(p.path(key)); err == nil {
		p.count--
	}
}

func (p *Pairtree) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Keys walks the tree, reading each entry file's header to recover the
// stored key (file names are key hashes, so the key itself lives in
// the file). Unreadable or corrupt files are skipped.
func (p *Pairtree) Keys(yield func(key string) bool) {
	stop := errors.New("stop")
	filepath.WalkDir(p.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), pairtreeSuffix) {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		if len(raw) < pairtreeHdr || string(raw[:4]) != pairtreeMagic {
			return nil
		}
		keyLen := binary.LittleEndian.Uint32(raw[4:8])
		if keyLen == 0 || keyLen > maxKeyLen || int64(len(raw)) < int64(pairtreeHdr)+int64(keyLen) {
			return nil
		}
		if !yield(string(raw[pairtreeHdr : pairtreeHdr+keyLen])) {
			return stop
		}
		return nil
	})
}

func (p *Pairtree) Close() error { return nil }
