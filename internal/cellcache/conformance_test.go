package cellcache

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file is the cross-engine conformance suite: one table of
// engines (and one of cache specs layered over them) driven through
// the semantics every implementation must share. A new engine — the
// distributed tier's remote backend included — earns its place by
// adding a row here, not by hand-written parallel tests.

type engineCase struct {
	name       string
	persistent bool
	open       func(t *testing.T, dir string) Engine
	// corrupt damages every stored entry's bytes on disk (no-op for
	// volatile engines).
	corrupt func(t *testing.T, dir string)
}

var engineCases = []engineCase{
	{
		name: "memory",
		open: func(t *testing.T, dir string) Engine { return NewMemory(0, 0) },
	},
	{
		name:       "pairtree",
		persistent: true,
		open: func(t *testing.T, dir string) Engine {
			e, err := OpenPairtree(dir)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		corrupt: corruptPairtree,
	},
	// A healed Faulty wrapper must be indistinguishable from its inner
	// engine — the chaos harness's "replay after heal" guarantee starts
	// with the wrapper itself conforming.
	{
		name:       "faulty-pairtree",
		persistent: true,
		open: func(t *testing.T, dir string) Engine {
			e, err := OpenPairtree(dir)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFaulty(e, FaultProfile{Seed: 9, PutErr: 0.5, GetErr: 0.5, Torn: 0.5, DownFirst: 4})
			f.Heal()
			return f
		},
		corrupt: corruptPairtree,
	},
}

func corruptPairtree(t *testing.T, dir string) {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, pairtreeSuffix) {
			corruptFile(t, path)
			n++
		}
		return nil
	})
	if n == 0 {
		t.Fatal("no pairtree entry files to corrupt")
	}
}

// corruptFile flips the byte three quarters of the way into the file
// (inside value bytes, past the headers), simulating bit rot.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s too short to corrupt", path)
	}
	raw[len(raw)*3/4] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConformance drives the raw Engine contract against every
// implementation.
func TestEngineConformance(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			dir := t.TempDir()
			e := ec.open(t, dir)

			// Round trip, including binary values and the empty value.
			vals := map[string][]byte{
				"k-empty":  {},
				"k-binary": {0, 1, 0xff, '\n', 0x80, 0},
				"k-big":    bytes.Repeat([]byte{0xAB}, 1<<16),
			}
			for k, v := range vals {
				if err := e.Put(k, v); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			for k, want := range vals {
				got, ok := e.Get(k)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("Get(%s) = %v, %v; want %d bytes", k, len(got), ok, len(want))
				}
			}
			if _, ok := e.Get("k-absent"); ok {
				t.Error("hit on absent key")
			}
			if n := e.Len(); n != len(vals) {
				t.Errorf("Len = %d, want %d", n, len(vals))
			}

			// Put is an upsert: last write wins.
			if err := e.Put("k-binary", []byte("second")); err != nil {
				t.Fatal(err)
			}
			if v, _ := e.Get("k-binary"); string(v) != "second" {
				t.Errorf("upsert did not win: %q", v)
			}
			if n := e.Len(); n != len(vals) {
				t.Errorf("upsert changed Len to %d", n)
			}

			// Keys yields exactly the stored set; early stop works.
			seen := map[string]bool{}
			e.Keys(func(k string) bool { seen[k] = true; return true })
			if len(seen) != len(vals) {
				t.Errorf("Keys yielded %d keys, want %d", len(seen), len(vals))
			}
			for k := range vals {
				if !seen[k] {
					t.Errorf("Keys missed %s", k)
				}
			}
			stopped := 0
			e.Keys(func(string) bool { stopped++; return false })
			if stopped != 1 {
				t.Errorf("yield-false did not stop the walk (%d yields)", stopped)
			}

			// Delete is effective and idempotent.
			e.Delete("k-empty")
			e.Delete("k-empty")
			e.Delete("k-never-existed")
			if _, ok := e.Get("k-empty"); ok {
				t.Error("deleted key still served")
			}
			if n := e.Len(); n != len(vals)-1 {
				t.Errorf("Len after delete = %d, want %d", n, len(vals)-1)
			}

			if !ec.persistent {
				return
			}

			// Restart survival: upserts and deletes... deletes need not
			// survive (the log keeps dead records), but last-wins must.
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2 := ec.open(t, dir)
			if v, ok := e2.Get("k-binary"); !ok || string(v) != "second" {
				t.Errorf("after restart, upsert lost: %q, %v", v, ok)
			}
			if v, ok := e2.Get("k-big"); !ok || !bytes.Equal(v, vals["k-big"]) {
				t.Errorf("after restart, k-big lost (%d bytes, %v)", len(v), ok)
			}

			// Corruption tolerance: damaged entries are misses, never
			// errors, and the engine keeps accepting writes.
			e2.Close()
			ec.corrupt(t, dir)
			e3 := ec.open(t, dir)
			defer e3.Close()
			if v, ok := e3.Get("k-big"); ok && !bytes.Equal(v, vals["k-big"]) {
				t.Error("corrupted value served with wrong bytes instead of missing")
			}
			if err := e3.Put("k-after", []byte("post-corruption")); err != nil {
				t.Fatalf("Put after corruption: %v", err)
			}
			if v, ok := e3.Get("k-after"); !ok || string(v) != "post-corruption" {
				t.Errorf("post-corruption write unreadable: %q, %v", v, ok)
			}
		})
	}
}

// cacheCase layers the Cache front over each engine × codec.
type cacheCase struct {
	name       string
	persistent bool
	spec       func(dir, params string) string
}

var cacheCases = []cacheCase{
	{"memory", false, func(dir, params string) string { return "memory://" + params }},
	{"memory-gzip", false, func(dir, params string) string { return "memory://" + join(params, "compress=gzip") }},
	{"pairtree", true, func(dir, params string) string { return "pairtree://" + dir + params }},
	{"pairtree-gzip", true, func(dir, params string) string { return "pairtree://" + dir + join(params, "compress=gzip") }},
	// Zero-probability fault wrapper: the full Cache contract must hold
	// through the Faulty seam (and the default breaker) unchanged.
	{"faulty-pairtree", true, func(dir, params string) string { return "faulty+pairtree://" + dir + params }},
	{"faulty-pairtree-gzip", true, func(dir, params string) string {
		return "faulty+pairtree://" + dir + join(params, "compress=gzip")
	}},
}

// join appends a query parameter to an optional existing "?..." tail.
func join(params, extra string) string {
	if params == "" {
		return "?" + extra
	}
	return params + "&" + extra
}

// TestCacheConformanceRoundTrip: puts replay byte-identically under
// every engine × codec combination, including after a restart for the
// persistent engines and with the memory tier disabled (forcing every
// read through the store).
func TestCacheConformanceRoundTrip(t *testing.T) {
	payload := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf(`{"cell":%d,"cycles":%d} `, i, i*7717)), 1+i%40)
	}
	for _, cc := range cacheCases {
		t.Run(cc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := openSpec(t, cc.spec(dir, ""), "")
			for i := 0; i < 50; i++ {
				if err := c.Put("ns", fmt.Sprint(i), payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				v, ok := c.Get("ns", fmt.Sprint(i))
				if !ok || !bytes.Equal(v, payload(i)) {
					t.Fatalf("round trip %d: ok=%v", i, ok)
				}
			}
			if !cc.persistent {
				return
			}
			c.Close()
			// Restart, memory tier off: byte identity straight off the engine.
			c2 := openSpec(t, cc.spec(dir, "?entries=-1"), "")
			for i := 0; i < 50; i++ {
				v, ok := c2.Get("ns", fmt.Sprint(i))
				if !ok || !bytes.Equal(v, payload(i)) {
					t.Fatalf("restart round trip %d: ok=%v", i, ok)
				}
			}
			if s := c2.Stats(); s.StoreHits != 50 || s.MemHits != 0 {
				t.Errorf("all hits should be store-tier: %+v", s)
			}
		})
	}
}

// TestCacheConformanceEviction: the memory tier stays bounded under
// every spec; with a persistent engine behind it, evicted entries are
// still served (from the store) and re-promoted.
func TestCacheConformanceEviction(t *testing.T) {
	for _, cc := range cacheCases {
		t.Run(cc.name, func(t *testing.T) {
			c := openSpec(t, cc.spec(t.TempDir(), "?entries=4"), "")
			for i := 0; i < 12; i++ {
				c.Put("", fmt.Sprintf("k%d", i), []byte{byte(i)})
			}
			s := c.Stats()
			if s.MemEntries > 4 || s.Evictions < 8 {
				t.Fatalf("memory tier unbounded: %+v", s)
			}
			_, ok := c.Get("", "k0")
			if cc.persistent {
				if !ok {
					t.Error("evicted entry lost despite persistent engine")
				}
				if s := c.Stats(); s.StoreHits != 1 {
					t.Errorf("evicted entry not served by store tier: %+v", s)
				}
				// Promoted: the repeat is a memory hit.
				c.Get("", "k0")
				if s := c.Stats(); s.MemHits == 0 {
					t.Errorf("store hit not promoted: %+v", s)
				}
			} else if ok {
				t.Error("evicted entry served by a memory-only cache")
			}
		})
	}
}

// TestCacheConformanceTTL: expiry and extend-on-read behave
// identically under every engine.
func TestCacheConformanceTTL(t *testing.T) {
	for _, cc := range cacheCases {
		t.Run(cc.name, func(t *testing.T) {
			c := openSpec(t, cc.spec(t.TempDir(), "?ttl=1h"), "")
			clock := time.Now()
			c.now = func() time.Time { return clock }
			c.Put("", "hot", []byte("extended"))
			c.Put("", "cold", []byte("abandoned"))
			for i := 0; i < 6; i++ {
				clock = clock.Add(45 * time.Minute)
				if _, ok := c.Get("", "hot"); !ok {
					t.Fatalf("read-extended entry expired at step %d", i)
				}
			}
			if _, ok := c.Get("", "cold"); ok {
				t.Error("unread entry outlived its lease")
			}
			if s := c.Stats(); s.Expired == 0 {
				t.Errorf("expiry not counted: %+v", s)
			}
		})
	}
}

// TestCacheConformanceSingleflight: concurrent Do calls for one key
// collapse to one computation under every engine.
func TestCacheConformanceSingleflight(t *testing.T) {
	for _, cc := range cacheCases {
		t.Run(cc.name, func(t *testing.T) {
			c := openSpec(t, cc.spec(t.TempDir(), ""), "")
			var calls atomic.Int64
			gate := make(chan struct{})
			const n = 8
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, _, err := c.Do("t1", "k", func() ([]byte, error) {
						calls.Add(1)
						<-gate
						return []byte("computed"), nil
					})
					if err != nil || string(v) != "computed" {
						t.Errorf("Do = %q, %v", v, err)
					}
				}()
			}
			for c.Stats().Collapsed < n-1 {
			}
			close(gate)
			wg.Wait()
			if got := calls.Load(); got != 1 {
				t.Errorf("fn ran %d times, want 1", got)
			}
			// Failures are never cached, under any engine.
			boom := fmt.Errorf("boom")
			if _, _, err := c.Do("t1", "fail", func() ([]byte, error) { return nil, boom }); err != boom {
				t.Fatalf("err = %v", err)
			}
			if v, cached, err := c.Do("t1", "fail", func() ([]byte, error) { return []byte("ok"), nil }); err != nil || cached || string(v) != "ok" {
				t.Errorf("failure was cached: %q %v %v", v, cached, err)
			}
		})
	}
}

// TestCacheConformanceCorruption: on-disk damage reads as a miss and
// the cell is recomputed, never served wrong, under both persistent
// engines and both codecs.
func TestCacheConformanceCorruption(t *testing.T) {
	for _, cc := range cacheCases {
		if !cc.persistent {
			continue
		}
		ec := engineFor(t, cc.name)
		t.Run(cc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := openSpec(t, cc.spec(dir, ""), "")
			want := bytes.Repeat([]byte("precious result "), 64)
			c.Put("", "k", want)
			c.Close()

			ec.corrupt(t, dir)
			c2 := openSpec(t, cc.spec(dir, ""), "")
			if v, ok := c2.Get("", "k"); ok && !bytes.Equal(v, want) {
				t.Fatal("corrupted entry served with wrong bytes")
			}
			// The key is a plain miss: Do recomputes and repairs it.
			v, cached, err := c2.Do("", "k", func() ([]byte, error) { return want, nil })
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("recompute after corruption: %v %v", err, cached)
			}
			if v, ok := c2.Get("", "k"); !ok || !bytes.Equal(v, want) {
				t.Error("repair did not take")
			}
		})
	}
}

func engineFor(t *testing.T, cacheName string) engineCase {
	name := strings.TrimSuffix(cacheName, "-gzip")
	for _, ec := range engineCases {
		if ec.name == name {
			return ec
		}
	}
	t.Fatalf("no engine case %q", name)
	return engineCase{}
}
