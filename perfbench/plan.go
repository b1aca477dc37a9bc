package main

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"sync"
)

// class is a stashd-mix request class: which cache tier, if any, is
// meant to serve it.
type class uint8

const (
	classMem   class = iota // memory-tier hit through the coordinator
	classStore              // store-tier (pairtree) hit through the coordinator
	classPeer               // peer fill: sent straight to a shard that does not own the cell
	classCold               // a new (namespace, cell) pair: simulates and writes pairtree
	classSweep              // the warm Fig. 5 sweep through the coordinator
	numClasses
)

var classNames = [numClasses]string{"mem", "store", "peer", "cold", "sweep"}

func (c class) String() string { return classNames[c] }

// Planner parameters. A shard's memory tier holds memEntries cells,
// fewer than the live key set, so old keys live only in pairtree. These
// values and deckCounts are chosen, not measured from callers' traffic;
// README.md gives the reason for each.
const (
	memEntries = 48
	// margin is how many LRU positions a cell's real recency may differ
	// from the plan's: with two closed-loop clients one request can be
	// in flight out of plan order, and a sweep touches about half its
	// cells on each shard.
	margin = 24
	// memLimit and evictedAt are the recency bounds the plan keeps to:
	// a memory hit is planned only for a cell at most memLimit positions
	// deep, a store hit or peer fill only for one at least evictedAt
	// deep. The gap between them absorbs the reordering.
	memLimit  = memEntries - 1 - margin
	evictedAt = memEntries + margin
	// sweepEvery makes every sweepEvery-th request the warm sweep.
	sweepEvery = 25
	// reuseGap requests separate two uses of one cell, and coldGap
	// separate a cold request from the first reuse of its cell, so a
	// cell is never asked for while an earlier request for it may still
	// be in flight.
	reuseGap = 64
	coldGap  = 512
)

// deckCounts is the class mix of every 100 non-sweep requests, in class
// order (mem, store, peer, cold); each deck is dealt in a seeded order,
// so the mix does not drift with the seed. A request whose class has no
// eligible cell becomes a memory hit.
var deckCounts = [4]int{73, 13, 6, 8}

// mixKey is one cached cell: a namespace token and an index into the
// workload's cell table.
type mixKey struct {
	token string
	cell  int
}

// request is one planned client request.
type request struct {
	class class
	key   mixKey // unused for sweeps
	shard int    // shard whose cache serves it: the owner, or the non-owner for a peer fill
}

// candidate is a cell the plan may reuse from a shard's store.
type candidate struct {
	key   mixKey
	avail int // first request index at which it may be reused
}

// recency models one shard's memory-tier LRU: every cell the plan has
// touched there, most recent first, and how many of them the tier holds.
type recency struct {
	order     *list.List // of mixKey
	byKey     map[mixKey]*list.Element
	resident  int
	evictions int
}

func newRecency() *recency {
	return &recency{order: list.New(), byKey: make(map[mixKey]*list.Element)}
}

// depth is k's position from the most recent end, capped at limit
// (limit for a cell the tier never held).
func (r *recency) depth(k mixKey, limit int) int {
	el, ok := r.byKey[k]
	if !ok {
		return limit
	}
	d := 0
	for e := r.order.Front(); e != nil && d < limit; e = e.Next() {
		if e == el {
			return d
		}
		d++
	}
	return limit
}

// touch records a use of k: a hit refreshes it, a fill inserts it and,
// once the tier is full, evicts its least recent cell.
func (r *recency) touch(k mixKey) {
	if el, ok := r.byKey[k]; ok && r.depth(k, memEntries) < memEntries {
		r.order.MoveToFront(el)
		return
	} else if ok {
		r.order.MoveToFront(el)
	} else {
		r.byKey[k] = r.order.PushFront(k)
	}
	if r.resident == memEntries {
		r.evictions++
	} else {
		r.resident++
	}
}

// planner generates the stashd-mix request sequence from a seed, one
// request at a time, modelling each shard's memory tier so every
// request's class is what the shards will actually do. It is safe for
// concurrent use; the sequence does not depend on which client asks.
type planner struct {
	mu      sync.Mutex
	rng     *rand.Rand
	owner   []int // owning shard per cell index
	sweep   []mixKey
	cheap   []int // cell indices for pool and cold cells
	lru     [2]*recency
	stores  [2][]candidate // cells each shard owns, least recently used first
	peers   [2][]candidate // cells each shard owns that no peer has fetched yet
	lastUse map[mixKey]int
	deck    []class // classes left in the current deck
	colds   []int   // shuffled cheap cells for the current cold token
	coldTok int
	seed    int64
	step    int
	counts  [numClasses]int
}

// newPlanner starts a plan whose shards hold the sweep cells in memory
// (touched in sweep order) and the pool cells in pairtree only.
func newPlanner(seed int64, owner []int, sweep, pool []mixKey, cheap []int) *planner {
	p := &planner{
		rng:     rand.New(rand.NewPCG(uint64(seed), 0x6d6978)),
		owner:   owner,
		sweep:   sweep,
		cheap:   cheap,
		lru:     [2]*recency{newRecency(), newRecency()},
		lastUse: make(map[mixKey]int),
		seed:    seed,
	}
	for _, k := range sweep {
		p.lru[owner[k.cell]].touch(k)
	}
	for _, k := range pool {
		s := owner[k.cell]
		p.stores[s] = append(p.stores[s], candidate{key: k})
		p.peers[s] = append(p.peers[s], candidate{key: k})
	}
	return p
}

// next returns the next request of the sequence.
func (p *planner) next() request {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.step
	p.step++
	req := p.pick(t)
	p.counts[req.class]++
	switch req.class {
	case classSweep:
		for _, k := range p.sweep {
			p.lru[p.owner[k.cell]].touch(k)
		}
		return req
	case classCold:
		c := candidate{key: req.key, avail: t + coldGap}
		p.stores[req.shard] = append(p.stores[req.shard], c)
		p.peers[req.shard] = append(p.peers[req.shard], c)
	case classStore:
		p.stores[req.shard] = append(p.stores[req.shard], candidate{key: req.key})
	}
	p.lru[req.shard].touch(req.key)
	p.lastUse[req.key] = t
	return req
}

func (p *planner) pick(t int) request {
	if t%sweepEvery == sweepEvery-1 {
		return request{class: classSweep}
	}
	if len(p.deck) == 0 {
		for c, n := range deckCounts {
			for range n {
				p.deck = append(p.deck, class(c))
			}
		}
		p.rng.Shuffle(len(p.deck), func(i, j int) { p.deck[i], p.deck[j] = p.deck[j], p.deck[i] })
	}
	want := p.deck[0]
	p.deck = p.deck[1:]
	first := p.rng.IntN(2) // shard tried first by store hits and peer fills
	var (
		req request
		ok  bool
	)
	switch want {
	case classStore:
		req, ok = p.store(t, first)
	case classPeer:
		req, ok = p.peer(t, first)
	case classCold:
		req, ok = p.cold()
	}
	if !ok {
		req = p.mem()
	}
	return req
}

// mem plans a memory hit on the least recently used sweep cell. Only
// sweeps and memory hits touch sweep cells, and every fill first checks
// insertSafe, so that cell is always within memLimit: it is resident.
func (p *planner) mem() request {
	best, deepest := 0, -1
	for i, k := range p.sweep {
		if d := p.lru[p.owner[k.cell]].depth(k, evictedAt); d > deepest {
			best, deepest = i, d
		}
	}
	k := p.sweep[best]
	return request{class: classMem, key: k, shard: p.owner[k.cell]}
}

// reusable reports whether shard s may serve c from its store at
// request t: reuse gaps have passed and the cell is surely evicted.
func (p *planner) reusable(c candidate, s, t int) bool {
	last, used := p.lastUse[c.key]
	return c.avail <= t && (!used || last+reuseGap <= t) &&
		p.lru[s].depth(c.key, evictedAt) >= evictedAt
}

// insertSafe reports whether one more fill on shard s keeps every sweep
// cell within memLimit.
func (p *planner) insertSafe(s int) bool {
	for _, k := range p.sweep {
		if p.owner[k.cell] == s && p.lru[s].depth(k, evictedAt) >= memLimit {
			return false
		}
	}
	return true
}

// store plans a store-tier hit on the least recently used cell of a
// shard's store.
func (p *planner) store(t, first int) (request, bool) {
	for _, s := range []int{first, 1 - first} {
		q := p.stores[s]
		if len(q) == 0 || !p.reusable(q[0], s, t) || !p.insertSafe(s) {
			continue
		}
		p.stores[s] = q[1:]
		return request{class: classStore, key: q[0].key, shard: s}, true
	}
	return request{}, false
}

// peer plans a peer fill: a cell the owner holds only in pairtree, sent
// to the other shard, which has never held it.
func (p *planner) peer(t, first int) (request, bool) {
	for _, owner := range []int{first, 1 - first} {
		q, other := p.peers[owner], 1-owner
		if !p.insertSafe(other) {
			continue
		}
		for i := 0; i < len(q) && i < 8; i++ {
			if p.reusable(q[i], owner, t) {
				p.peers[owner] = append(q[:i:i], q[i+1:]...)
				return request{class: classPeer, key: q[i].key, shard: other}, true
			}
		}
	}
	return request{}, false
}

// cold plans a new (namespace, cell) pair: each cold token takes every
// cheap cell once, in a seeded order. It declines while the next cell's
// owner has no room for a fill.
func (p *planner) cold() (request, bool) {
	if len(p.colds) == 0 {
		p.coldTok++
		p.colds = p.rng.Perm(len(p.cheap))
	}
	cell := p.cheap[p.colds[0]]
	if !p.insertSafe(p.owner[cell]) {
		return request{}, false
	}
	p.colds = p.colds[1:]
	k := mixKey{token: fmt.Sprintf("cold-%d-%d", p.seed, p.coldTok), cell: cell}
	return request{class: classCold, key: k, shard: p.owner[cell]}, true
}

// planned is the plan's class mix so far and its predicted memory-tier
// evictions summed over shards.
func (p *planner) planned() (counts [numClasses]int, evictions int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts, p.lru[0].evictions + p.lru[1].evictions
}
