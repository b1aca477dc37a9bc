// Package cache implements the L1 data caches (GPU CU and CPU core)
// with the DeNovo word-granularity coherence protocol: line-granularity
// tags, per-word Invalid/Shared/Registered state, registration on store
// misses, self-invalidation of Shared words at kernel boundaries, and
// lazy writeback of Registered words on eviction.
//
// The cache is physically indexed and tagged: every access pays a TLB
// lookup and a tag comparison, which is exactly the energy overhead the
// stash avoids (paper Table 1).
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"stash/internal/check"
	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/llc"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
	"stash/internal/trace"
)

// Params configures an L1 cache.
type Params struct {
	SizeBytes    int
	Ways         int
	HitLat       sim.Cycle
	NumLLCBanks  int
	MSHRs        int  // maximum outstanding missed lines; bursts beyond this stall
	ChargeEnergy bool // false for CPU L1s: the paper does not measure them
	// ReadExtra and WriteExtra add technology-dependent cycles on top of
	// HitLat: ReadExtra delays load completions (hit and fill delivery),
	// WriteExtra delays store accepts. Zero (the default SRAM baseline)
	// is bit-identical to the pre-technology timing model. Coherence
	// packet injection times are never perturbed: writeback sends stay
	// synchronous so the protocol's per-flow ordering (a WBReq must not
	// reorder against a later RegReq of the same line) is preserved by
	// construction.
	ReadExtra  sim.Cycle
	WriteExtra sim.Cycle
	// TechEnergy switches energy charging from the unified L1Hit/L1Miss
	// classes to the read/write-split classes (L1ReadHit etc.), so
	// asymmetric technologies price loads and stores differently. Off by
	// default: the split classes then stay at zero count, keeping the
	// default energy total bit-identical.
	TechEnergy bool
}

// DefaultParams returns the paper's Table 2 GPU L1 configuration:
// 32 KB, 8-way, 1-cycle hits, 16 MSHRs (GPGPU-Sim's per-L1 default
// range), which bounds how deeply explicit copy bursts can pipeline.
func DefaultParams() Params {
	return Params{SizeBytes: 32 << 10, Ways: 8, HitLat: 1, NumLLCBanks: 16, MSHRs: 16, ChargeEnergy: true}
}

// line keeps per-word DeNovo state as three word masks instead of a
// [WordsPerLine]coh.State array: a word is Shared, Registered, or
// PendingReg when its bit is set in the corresponding mask, Invalid
// when it appears in none. The masks are mutually exclusive. This
// turns every per-word state loop on the access path into one or two
// mask operations.
type line struct {
	addr   memdata.PAddr
	vals   [memdata.WordsPerLine]uint32
	shared memdata.WordMask
	reg    memdata.WordMask
	pend   memdata.WordMask
	mshr   *mshr // the line's live MSHR, if any (mirrors c.mshrs[addr])
	// wbWait mirrors c.wbuf.Busy(addr): the previous tenant of this
	// address still has a writeback in flight, so the line cannot be
	// evicted (the WBBuffer entry would be clobbered by a second Put).
	// Set when the line is installed, cleared by the WBAck handler;
	// keeping it on the line makes the victim scan map-free.
	wbWait bool
}

// readable covers the words that can satisfy a load (any non-Invalid
// state, see coh.State.Readable).
func (l *line) readable() memdata.WordMask { return l.shared | l.reg | l.pend }

// owned covers Registered and PendingReg words (coh.State.Owned).
func (l *line) owned() memdata.WordMask { return l.reg | l.pend }

func (l *line) anyPending() bool { return l.pend != 0 }

// wordState reconstructs the coh.State of one word, for invariant
// checks, debugging, and Peek.
func (l *line) wordState(i int) coh.State {
	switch {
	case l.pend.Has(i):
		return coh.PendingReg
	case l.reg.Has(i):
		return coh.Registered
	case l.shared.Has(i):
		return coh.Shared
	default:
		return coh.Invalid
	}
}

type waiter struct {
	mask memdata.WordMask
	done func(vals [memdata.WordsPerLine]uint32)
}

// op is a pooled load completion: it delivers vals to the load's done
// callback. Its run closure is bound once when the op is first created,
// so scheduling a hit or fill completion allocates nothing in steady
// state.
type op struct {
	c     *Cache
	vals  [memdata.WordsPerLine]uint32
	doneL func(vals [memdata.WordsPerLine]uint32)
	run   func()
}

// fire releases the op before running the callback, which may itself
// acquire ops.
func (o *op) fire() {
	c := o.c
	vals := o.vals
	doneL := o.doneL
	o.doneL = nil
	c.opFree = append(c.opFree, o)
	doneL(vals)
}

func (c *Cache) newOp() *op {
	if n := len(c.opFree); n > 0 {
		o := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return o
	}
	o := &op{c: c}
	o.run = o.fire
	return o
}

// retryDelay is how many cycles a structurally stalled access waits
// before it re-issues.
const retryDelay = 4

// retry is one structurally stalled Load or Store, parked in
// Cache.retries until it re-issues. Records are addressed by index, so
// the table can grow while batches hold their ids.
type retry struct {
	addr  memdata.PAddr
	mask  memdata.WordMask
	store bool
	// counted: the last attempt found a line but no free MSHR (loads) or
	// registration slot (stores), and the record is held in
	// c.outstanding until it re-issues, so a drain cannot complete before
	// it has. An attempt that found every way busy is not counted.
	counted bool
	vals    [memdata.WordsPerLine]uint32
	doneL   func(vals [memdata.WordsPerLine]uint32)
	doneS   func()
}

// ref is a batch's handle on a parked record. It copies the fields a
// frozen set's re-issue reads, so that re-issue never loads the record.
type ref struct {
	id, set int32
	counted bool
	store   bool
}

// batch is one engine event that re-issues a run of parked retries due
// in the same cycle, in the order they were deferred. A deferral joins
// the newest batch only while that batch's event is still the last one
// scheduled for its cycle (sim.Engine.Tail), so the batch occupies
// exactly the FIFO slots its records would have taken as separate
// events, and the engine's order is unchanged.
type batch struct {
	c    *Cache
	at   sim.Cycle
	seq  uint64 // the batch event's engine sequence number
	refs []ref
	run  func()
}

// fire re-issues the batch's records in order. A frozen set's re-issue
// whose condition still holds (see setWatch) only counts itself and
// defers again. A run of such re-issues schedules nothing else, so the
// MSHR and registration-buffer conditions cannot change within the run,
// and once its first deferral has found the batch for now+retryDelay,
// the rest of the run appends to that batch directly.
func (b *batch) fire() {
	c := b.c
	var next *batch // the batch the current run of frozen re-issues defers to
	var mshrsFull, regsFull bool
	for i := 0; i < len(b.refs); i++ {
		x := b.refs[i]
		s := &c.sets[x.set]
		if s.frozen {
			if next == nil {
				mshrsFull, regsFull = c.slotsFull(false), c.slotsFull(true)
			}
			if !x.counted || (x.store && regsFull) || (!x.store && mshrsFull) {
				s.fires++
				if next == nil {
					next = c.deferRetry(x)
				} else {
					next.refs = append(next.refs, x)
				}
				continue
			}
		}
		next = nil
		c.reissue(x)
	}
	b.refs = b.refs[:0]
	if c.tail == b {
		c.tail = nil
	}
	c.batchFree = append(c.batchFree, b)
}

// park files a stalled access as a retry record and defers it.
func (c *Cache) park(r retry) {
	var id int32
	if n := len(c.retryFree); n > 0 {
		id = c.retryFree[n-1]
		c.retryFree = c.retryFree[:n-1]
		c.retries[id] = r
	} else {
		id = int32(len(c.retries))
		c.retries = append(c.retries, r)
	}
	if r.counted {
		c.outstanding++
	}
	si := c.setIndex(r.addr)
	c.watch[si].parked++
	c.deferRetry(ref{id: id, set: int32(si), counted: r.counted, store: r.store})
}

// deferRetry schedules a parked record to re-issue retryDelay cycles
// from now, and returns the batch that holds it.
func (c *Cache) deferRetry(x ref) *batch {
	at := c.eng.Now() + retryDelay
	if b := c.tail; b != nil && b.at == at {
		if seq, ok := c.eng.Tail(at); ok && seq == b.seq {
			b.refs = append(b.refs, x)
			return b
		}
	}
	var b *batch
	if n := len(c.batchFree); n > 0 {
		b = c.batchFree[n-1]
		c.batchFree = c.batchFree[:n-1]
	} else {
		b = &batch{c: c}
		b.run = b.fire
	}
	b.at = at
	b.refs = append(b.refs, x)
	c.eng.At(at, b.run)
	b.seq, _ = c.eng.Tail(at)
	c.tail = b
	return b
}

// reissue re-runs a parked record: the access either proceeds and the
// record is released, or it stalls again and is deferred. A frozen set
// reaching here has a record whose condition no longer holds, and thaws
// first.
func (c *Cache) reissue(x ref) {
	si := int(x.set)
	s := &c.sets[si]
	if s.frozen {
		c.unwatch(si)
	}
	id := x.id
	r := &c.retries[id]
	counted := r.counted
	if counted {
		r.counted = false
		c.outstanding--
	}
	l, how := c.allocateIn(s, r.addr)
	ok := false
	if l != nil {
		if r.store {
			ok = c.storeWith(l, r.addr, r.mask, &r.vals, r.doneS)
		} else {
			ok = c.loadWith(l, r.addr, r.mask, r.doneL)
		}
	}
	if ok {
		r.doneL, r.doneS = nil, nil
		c.retryFree = append(c.retryFree, id)
		c.watch[si].parked--
		c.unwatch(si)
	} else {
		if l != nil {
			r.counted = true
			c.outstanding++
		}
		x.counted = r.counted
		c.deferRetry(x)
		if how <= allocEvict && r.counted == counted {
			c.observe(si, id, how == allocEvict)
		} else {
			c.unwatch(si)
		}
	}
	if counted {
		c.checkDrained()
	}
}

// slotsFull reports whether the resource a stalled load (MSHRs) or
// store (registration buffer) waits for is still exhausted.
func (c *Cache) slotsFull(store bool) bool {
	if store {
		return c.p.MSHRs > 0 && len(c.pendingReg) >= c.p.MSHRs
	}
	return c.p.MSHRs > 0 && len(c.mshrs) >= c.p.MSHRs
}

// watchSlots is how many round snapshots a set keeps: the newest and
// the watchSlots-1 before it, the longest period a freeze can detect.
const watchSlots = 9

// setWatch observes one set's parked retries to find a periodic storm.
//
// A re-issue is clean when it fails, its allocate was a resident hit,
// an eviction of an empty line (no Shared or Registered words) whose
// install did not wait on a writeback, or nil because every way is
// busy, and its counted flag did not change. Clean re-issues change
// nothing but the set (LRU order, tags of evicted empty lines) and the
// eviction counter. With K records parked on the set, the re-issues
// come in a fixed cyclic order, each record once per K, for as long as
// no record joins or leaves; a round is K clean re-issues in that
// order, which observe checks. The set's full state is snapshotted
// after each round. When a snapshot
// equals the one d rounds earlier, the set and its periodic input
// repeat with a period of dK re-issues from here on, so the set
// freezes: later re-issues skip allocate and only re-check the global
// condition (MSHR file or registration buffer full) of the counted
// records, whose clean re-issues all found a line. The eviction counter
// lags a frozen set until it thaws; a set is frozen only while records
// are parked on it.
//
// Any other access to the set first thaws it (unwatch): whole periods
// add their known evictions, the remaining re-issues replay through
// allocate, and the observation restarts. So does a re-issue whose
// condition no longer holds, before it runs normally.
type setWatch struct {
	parked int32 // retry records whose line maps to the set: K
	// The observation has seen `round` whole rounds and pos re-issues
	// of the current one.
	round, pos int
	order      []int32 // record ids in re-issue order, taken in round 0
	roundEv    uint64  // evictions so far in the current round
	// snaps holds watchSlots round snapshots of 2*Ways words each: a
	// way's tag, then its word-state masks, flags and LRU rank.
	snaps []uint64
	ev    [watchSlots]uint64 // evictions in each snapshot's round
	// Frozen: the set repeats a period of `period` re-issues that evict
	// perEv lines (cset.fires counts the re-issues since the freeze).
	period, perEv uint64
}

// observe records a clean re-issue of record id on set si.
func (c *Cache) observe(si int, id int32, evicted bool) {
	w := &c.watch[si]
	if w.round == 0 {
		w.order = append(w.order, id)
	} else if w.order[w.pos] != id {
		c.unwatch(si) // not the cyclic order the freeze relies on
		return
	}
	c.sets[si].watched = true
	if evicted {
		w.roundEv++
	}
	if w.pos++; w.pos == int(w.parked) {
		w.pos = 0
		w.round++
		c.snapshot(si, w.round)
	}
}

// snapshot records set si's state after round j (counting from 1) and
// freezes the set when the state repeats one of the last watchSlots-1
// rounds.
func (c *Cache) snapshot(si, j int) {
	s, w := &c.sets[si], &c.watch[si]
	n := 2 * c.p.Ways
	if w.snaps == nil {
		// The cache's first storm: size every set's snapshots at once.
		// Caches that never storm (most CPU L1s) never pay for them.
		all := make([]uint64, len(c.sets)*watchSlots*n)
		for i := range c.watch {
			c.watch[i].snaps = all[i*watchSlots*n : (i+1)*watchSlots*n]
		}
	}
	slot := j % watchSlots
	cur := w.snaps[slot*n : (slot+1)*n]
	for i := range c.p.Ways {
		if i >= len(s.lines) {
			cur[2*i], cur[2*i+1] = 0, 0
			continue
		}
		l := s.lines[i]
		var rank uint64
		for _, st := range s.stamp {
			if st > s.stamp[i] {
				rank++
			}
		}
		state := uint64(l.shared) | uint64(l.reg)<<16 | uint64(l.pend)<<32 | 1<<50 | rank<<56
		if l.mshr != nil {
			state |= 1 << 48
		}
		if l.wbWait {
			state |= 1 << 49
		}
		cur[2*i], cur[2*i+1] = uint64(s.addrs[i]), state
	}
	w.ev[slot] = w.roundEv
	w.roundEv = 0
	for d := 1; d < watchSlots && d < j; d++ {
		old := (j - d) % watchSlots
		if !slices.Equal(cur, w.snaps[old*n:(old+1)*n]) {
			continue
		}
		w.period = uint64(d) * uint64(len(w.order))
		w.perEv, s.fires = 0, 0
		for r := j - d + 1; r <= j; r++ {
			w.perEv += w.ev[r%watchSlots]
		}
		s.frozen = true
		return
	}
}

// unwatch thaws set si if it is frozen and restarts its observation.
// Thawing adds the evictions of the whole periods skipped and replays
// the remaining re-issues through allocate; their loads and stores
// failed, which has no side effect.
func (c *Cache) unwatch(si int) {
	s, w := &c.sets[si], &c.watch[si]
	if s.frozen {
		s.frozen = false
		c.evictions.Add(s.fires / w.period * w.perEv)
		for i := range s.fires % w.period {
			c.allocateIn(s, c.retries[w.order[i%uint64(len(w.order))]].addr)
		}
	}
	s.watched = false
	w.round, w.pos = 0, 0
	w.order = w.order[:0]
	w.roundEv = 0
}

// unwatchAll thaws every set, for whole-cache accesses.
func (c *Cache) unwatchAll() {
	for si := range c.sets {
		if c.sets[si].watched {
			c.unwatch(si)
		}
	}
}

// touch returns addr's set for any access other than a parked retry's
// re-issue, thawing it first.
func (c *Cache) touch(addr memdata.PAddr) *cset {
	si := c.setIndex(addr)
	s := &c.sets[si]
	if s.watched {
		c.unwatch(si)
	}
	return s
}

type mshr struct {
	requested memdata.WordMask // words asked of the LLC, not yet arrived
	waiters   []waiter
	born      sim.Cycle // cycle the entry was allocated, for age checks
}

// cset is one associativity set. Ways do not move: recency lives in a
// per-way LRU stamp (monotonically increasing use counter) instead of
// physical list order, so a hit refreshes recency with one word write
// and an eviction replaces a way in place — no shifting. The stamp
// order is exactly the move-to-front list order it replaced: front of
// the list = largest stamp, LRU victim = smallest stamp. The tag,
// stamp, and evictability arrays are parallel and contiguous so the
// hot scans never dereference a line pointer; within len the arrays
// always describe live lines.
type cset struct {
	addrs []memdata.PAddr
	lines []*line
	stamp []uint64
	// busyMask mirrors each way's evictability: bit w set when way w's
	// line has a pending registration, a live MSHR, or an in-flight
	// writeback of a previous tenant (wbWait). The victim scan reads
	// one word and iterates only the zero bits, so a replay storm's
	// repeated scans cost a couple of bit operations per evictable way.
	busyMask uint64
	// wbs counts writeback-buffer entries whose address maps to this
	// set. When zero — the overwhelmingly common case — installing a
	// line skips the buffer lookup entirely.
	wbs int32
	// watched: the set's parked retries are under observation or frozen
	// (see setWatch), so any other access must go through unwatch.
	watched bool
	frozen  bool
	fires   uint64 // frozen: re-issues since the freeze
}

// refreshBusy recomputes the evictability bit of addr's resident
// line l. Callers invoke it on the rare state transitions (MSHR
// create/retire, registration begin/ack, writeback ack), never on the
// per-retry storm path.
func (c *Cache) refreshBusy(addr memdata.PAddr, l *line) {
	s := c.touch(addr)
	for i, a := range s.addrs {
		if a == addr {
			if l.pend != 0 || l.mshr != nil || l.wbWait {
				s.busyMask |= 1 << uint(i)
			} else {
				s.busyMask &^= 1 << uint(i)
			}
			return
		}
	}
}

// Cache is one L1, attached to its node's router as coh.ToL1.
type Cache struct {
	eng  *sim.Engine
	net  *noc.Network
	node int
	comp coh.Component
	p    Params
	acct *energy.Account
	// sets hold LRU order (front = MRU). Line structs come from the
	// preallocated linePool and are reused in place on eviction and
	// after WritebackAll, so the steady-state access path never
	// allocates: a set's slices are truncated rather than nilled,
	// keeping dead line pointers in capacity for the next allocate.
	sets    []cset
	setMask int // len(sets)-1 when a power of two, else -1 (modulo path)
	// stampN issues LRU stamps: every hit or install takes the next
	// value, so larger stamp = more recently used.
	stampN   uint64
	linePool []line
	usedLine int // lines handed out of linePool so far
	mshrs    map[memdata.PAddr]*mshr
	mshrFree []*mshr // retired MSHRs, reused to keep misses allocation-free
	opFree   []*op   // pooled load completions
	// retries holds the parked structurally stalled accesses (free slots
	// listed in retryFree); batches re-issue them, and watch (one per
	// set) finds and freezes periodic storms.
	retries   []retry
	retryFree []int32
	batchFree []*batch
	tail      *batch // the newest batch, the only one a deferral can join
	watch     []setWatch
	// pendingReg tracks words with registration requests in flight.
	pendingReg  map[memdata.PAddr]memdata.WordMask
	wbuf        *coh.WBBuffer
	outstanding int // registrations + writebacks in flight
	drainWait   []func()
	chk         *check.Checker

	tsnk         *trace.Sink
	trMisses     *trace.Series
	trWritebacks *trace.Series

	hits       *stats.Counter
	misses     *stats.Counter
	evictions  *stats.Counter
	writebacks *stats.Counter
	remoteHits *stats.Counter
}

// New builds an L1 at the given node. comp is coh.ToL1 for a CPU/GPU L1
// (it exists so tests can instantiate two caches on one node).
func New(eng *sim.Engine, net *noc.Network, node int, name string, p Params, acct *energy.Account, set *stats.Set) *Cache {
	numLines := p.SizeBytes / memdata.LineBytes
	numSets := numLines / p.Ways
	if numSets == 0 {
		panic("cache: too small for associativity")
	}
	if p.Ways > 64 {
		panic("cache: associativity exceeds the 64-way busyMask word")
	}
	c := &Cache{
		eng:        eng,
		net:        net,
		node:       node,
		comp:       coh.ToL1,
		p:          p,
		acct:       acct,
		sets:       make([]cset, numSets),
		linePool:   make([]line, numLines),
		mshrs:      make(map[memdata.PAddr]*mshr),
		pendingReg: make(map[memdata.PAddr]memdata.WordMask),
		wbuf:       coh.NewWBBuffer(),
		hits:       set.Counter(fmt.Sprintf("l1.%s.hits", name)),
		misses:     set.Counter(fmt.Sprintf("l1.%s.misses", name)),
		evictions:  set.Counter(fmt.Sprintf("l1.%s.evictions", name)),
		writebacks: set.Counter(fmt.Sprintf("l1.%s.writebacks", name)),
		remoteHits: set.Counter(fmt.Sprintf("l1.%s.remote_hits", name)),
	}
	ptrs := make([]*line, numLines)
	tags := make([]memdata.PAddr, numLines)
	stamps := make([]uint64, numLines)
	c.watch = make([]setWatch, numSets)
	for i := range c.sets {
		c.sets[i] = cset{
			addrs: tags[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			lines: ptrs[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
			stamp: stamps[i*p.Ways : i*p.Ways : (i+1)*p.Ways],
		}
	}
	c.setMask = -1
	if numSets&(numSets-1) == 0 {
		c.setMask = numSets - 1
	}
	return c
}

func (c *Cache) setIndex(addr memdata.PAddr) int {
	if c.setMask >= 0 {
		return int(addr/memdata.LineBytes) & c.setMask
	}
	return int(addr/memdata.LineBytes) % len(c.sets)
}

func (c *Cache) lookup(addr memdata.PAddr) *line { return c.lookupIn(c.touch(addr), addr) }

// lookupIn finds addr's resident line in its set s, refreshing LRU.
func (c *Cache) lookupIn(s *cset, addr memdata.PAddr) *line {
	for i, a := range s.addrs {
		if a == addr {
			c.stampN++
			s.stamp[i] = c.stampN
			return s.lines[i]
		}
	}
	return nil
}

// allocate returns the resident line for addr, creating it (possibly
// evicting) if needed. It returns nil when every way is unevictable
// right now; the caller must retry.
func (c *Cache) allocate(addr memdata.PAddr) *line {
	l, _ := c.allocateIn(c.touch(addr), addr)
	return l
}

// allocKind says how allocateIn found its line. The kinds up to
// allocEvict are the ones a clean storm re-issue may have (setWatch).
type allocKind uint8

const (
	allocHit   allocKind = iota // resident
	allocNone                   // every way busy: no line
	allocEvict                  // evicted an empty line; the install waits on no writeback
	allocGrow                   // installed into an unused way
	allocDirty                  // evicted a line holding words, or the install waits on a writeback
)

// allocateIn is allocate on addr's set s, without thawing it: the
// parked-retry path.
func (c *Cache) allocateIn(s *cset, addr memdata.PAddr) (*line, allocKind) {
	if l := c.lookupIn(s, addr); l != nil {
		return l, allocHit
	}
	if n := len(s.lines); n < cap(s.lines) {
		// Grow into capacity, reusing a dead line left behind a
		// truncation (WritebackAll) or taking a fresh one from the pool.
		s.lines = s.lines[:n+1]
		s.addrs = s.addrs[:n+1]
		s.stamp = s.stamp[:n+1]
		l := s.lines[n]
		if l == nil {
			l = &c.linePool[c.usedLine]
			c.usedLine++
		}
		return c.install(s, l, addr, n), allocGrow
	}
	ev := ^s.busyMask & (uint64(1)<<uint(len(s.addrs)) - 1)
	if ev == 0 {
		return nil, allocNone
	}
	victim := bits.TrailingZeros64(ev)
	oldest := s.stamp[victim]
	for m := ev & (ev - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if s.stamp[i] < oldest {
			victim, oldest = i, s.stamp[i]
		}
	}
	l := s.lines[victim]
	how := allocEvict
	if l.shared|l.reg != 0 {
		how = allocDirty
	}
	c.evict(s, l)
	c.install(s, l, addr, victim)
	if l.wbWait {
		how = allocDirty
	}
	return l, how
}

// install resets l, resident at way w, as the freshest line for addr.
func (c *Cache) install(s *cset, l *line, addr memdata.PAddr, w int) *line {
	wbWait := s.wbs != 0 && c.wbuf.Busy(addr)
	*l = line{addr: addr, wbWait: wbWait}
	if wbWait {
		s.busyMask |= 1 << uint(w)
	} else {
		s.busyMask &^= 1 << uint(w)
	}
	s.lines[w] = l
	s.addrs[w] = addr
	c.stampN++
	s.stamp[w] = c.stampN
	return l
}

func (c *Cache) evict(s *cset, v *line) {
	c.evictions.Inc()
	mask := v.reg
	if mask == 0 {
		return
	}
	if !c.wbuf.Busy(v.addr) {
		s.wbs++ // a new writeback-buffer entry lands in this set
	}
	c.writebacks.Inc()
	c.tsnk.Event(uint64(c.eng.Now()), trace.KWriteback, uint64(v.addr), 0)
	c.trWritebacks.Add(uint64(c.eng.Now()), 1)
	c.wbuf.Put(v.addr, mask, v.vals)
	c.outstanding++
	coh.Send(c.net, &coh.Packet{
		Type: coh.WBReq, Line: v.addr, Mask: mask, Vals: v.vals,
		SrcNode: c.node, SrcComp: c.comp,
		DstNode: llc.BankOf(v.addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
		MapIdx: -1,
	})
}

func (c *Cache) chargeAccess(hit, write bool) {
	if !c.p.ChargeEnergy {
		return
	}
	c.acct.Add(energy.TLBAccess, 1)
	if c.p.TechEnergy {
		switch {
		case hit && !write:
			c.acct.Add(energy.L1ReadHit, 1)
		case hit && write:
			c.acct.Add(energy.L1WriteHit, 1)
		case !write:
			c.acct.Add(energy.L1ReadMiss, 1)
		default:
			c.acct.Add(energy.L1WriteMiss, 1)
		}
		return
	}
	if hit {
		c.acct.Add(energy.L1Hit, 1)
	} else {
		c.acct.Add(energy.L1Miss, 1)
	}
}

// Load requests the masked words of the line at addr. done receives the
// word values (indexed by position within the line) once all are
// present. Hits complete after HitLat.
func (c *Cache) Load(addr memdata.PAddr, mask memdata.WordMask, done func(vals [memdata.WordsPerLine]uint32)) {
	if addr != memdata.LineOf(addr) {
		panic("cache: Load address not line-aligned")
	}
	l := c.allocate(addr)
	if l == nil || !c.loadWith(l, addr, mask, done) {
		c.park(retry{addr: addr, mask: mask, counted: l != nil, doneL: done})
	}
}

// loadWith runs the load against its resident line. It reports false —
// with no side effects — when every miss-status register is busy; the
// caller parks the access.
func (c *Cache) loadWith(l *line, addr memdata.PAddr, mask memdata.WordMask, done func(vals [memdata.WordsPerLine]uint32)) bool {
	readable := l.readable()
	missing := mask &^ readable
	fetch := memdata.MaskAll &^ readable
	if missing == 0 {
		c.hits.Inc()
		c.chargeAccess(true, false)
		o := c.newOp()
		o.vals, o.doneL = l.vals, done
		c.eng.Schedule(c.p.HitLat+c.p.ReadExtra, o.run)
		return true
	}
	m := l.mshr // mirrors c.mshrs[addr]; the line outlives its MSHR
	if m == nil {
		if c.p.MSHRs > 0 && len(c.mshrs) >= c.p.MSHRs {
			return false // all miss-status registers busy
		}
		if n := len(c.mshrFree); n > 0 {
			m = c.mshrFree[n-1]
			c.mshrFree = c.mshrFree[:n-1]
		} else {
			m = &mshr{}
		}
		m.born = c.eng.Now()
		c.mshrs[addr] = m
		l.mshr = m
		c.refreshBusy(addr, l)
		c.tsnk.Event(uint64(m.born), trace.KAccessBegin, uint64(addr), 0)
	}
	c.misses.Inc()
	c.tsnk.Event(uint64(c.eng.Now()), trace.KMiss, uint64(addr), 0)
	c.trMisses.Add(uint64(c.eng.Now()), 1)
	c.chargeAccess(false, false)
	// A miss fetches the whole line (line-granularity transfer, as in
	// the paper's line-based DeNovo): unlike the stash, the cache cannot
	// fetch compactly, which is exactly the Table 1 contrast.
	need := (missing | fetch) &^ m.requested
	m.waiters = append(m.waiters, waiter{mask: mask, done: done})
	if need != 0 {
		m.requested |= need
		coh.Send(c.net, &coh.Packet{
			Type: coh.ReadReq, Line: addr, Mask: need,
			SrcNode: c.node, SrcComp: c.comp,
			DstNode: llc.BankOf(addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
			MapIdx: -1,
		})
	}
	return true
}

// Store writes the masked words. done is called once the data is
// accepted locally (after HitLat); registration of newly owned words
// completes in the background and is awaited by Drain.
func (c *Cache) Store(addr memdata.PAddr, mask memdata.WordMask, vals [memdata.WordsPerLine]uint32, done func()) {
	if addr != memdata.LineOf(addr) {
		panic("cache: Store address not line-aligned")
	}
	l := c.allocate(addr)
	if l == nil || !c.storeWith(l, addr, mask, &vals, done) {
		c.park(retry{addr: addr, mask: mask, store: true, counted: l != nil, vals: vals, doneS: done})
	}
}

// storeWith runs the store against its resident line. It reports false
// — with no side effects — when the registration buffer is full and
// the line has no registration to merge with; the caller parks it.
func (c *Cache) storeWith(l *line, addr memdata.PAddr, mask memdata.WordMask, vals *[memdata.WordsPerLine]uint32, done func()) bool {
	if c.p.MSHRs > 0 && len(c.pendingReg) >= c.p.MSHRs {
		if _, merging := c.pendingReg[addr]; !merging {
			return false // registration buffer full
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(uint16(m))
		l.vals[i] = vals[i]
	}
	needReg := mask &^ l.owned()
	l.shared &^= needReg
	l.pend |= needReg
	if needReg != 0 {
		c.refreshBusy(addr, l)
	}
	if needReg == 0 {
		c.hits.Inc()
		c.chargeAccess(true, true)
	} else {
		c.misses.Inc()
		c.tsnk.Event(uint64(c.eng.Now()), trace.KMiss, uint64(addr), 0)
		c.trMisses.Add(uint64(c.eng.Now()), 1)
		c.chargeAccess(false, true)
		pending := c.pendingReg[addr]
		newReq := needReg &^ pending
		c.pendingReg[addr] = pending | needReg
		if newReq != 0 {
			c.outstanding++
			coh.Send(c.net, &coh.Packet{
				Type: coh.RegReq, Line: addr, Mask: newReq,
				SrcNode: c.node, SrcComp: c.comp,
				DstNode: llc.BankOf(addr, c.p.NumLLCBanks), DstComp: coh.ToLLC,
				MapIdx: -1,
			})
		}
	}
	c.eng.Schedule(c.p.HitLat+c.p.WriteExtra, done)
	return true
}

// HandlePacket implements coh.Handler for LLC responses and remote
// requests.
func (c *Cache) HandlePacket(p *coh.Packet) {
	switch p.Type {
	case coh.DataResp:
		c.fill(p)
	case coh.RegAck:
		c.regAck(p)
	case coh.WBAck:
		c.wbuf.Release(p.Line, p.Mask)
		if !c.wbuf.Busy(p.Line) {
			s := c.touch(p.Line)
			s.wbs--
			for i, a := range s.addrs {
				if a == p.Line {
					l := s.lines[i]
					l.wbWait = false
					if l.pend == 0 && l.mshr == nil {
						s.busyMask &^= 1 << uint(i)
					}
					break
				}
			}
		}
		c.outstanding--
		c.chk.Progress()
		c.checkDrained()
	case coh.FwdReadReq:
		c.serveRemote(p)
	case coh.OwnerInv:
		c.ownerInv(p)
	default:
		panic("cache: unexpected packet " + p.Type.String())
	}
}

func (c *Cache) fill(p *coh.Packet) {
	c.chk.Progress()
	c.tsnk.Event(uint64(c.eng.Now()), trace.KFill, uint64(p.Line), 0)
	l := c.lookup(p.Line)
	if l != nil {
		take := p.Mask &^ l.readable() // only Invalid words accept fill data
		for m := take; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(uint16(m))
			l.vals[i] = p.Vals[i]
		}
		l.shared |= take
	}
	m := c.mshrs[p.Line]
	if m == nil {
		return
	}
	m.requested &^= p.Mask
	if l == nil {
		// The line was somehow dropped; waiters will be answered from the
		// response values directly (possible only if evicted mid-flight,
		// which allocate() prevents; keep as a defensive path).
		return
	}
	readable := l.readable()
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		if w.mask&^readable == 0 {
			o := c.newOp()
			o.vals, o.doneL = l.vals, w.done
			c.eng.Schedule(c.p.HitLat+c.p.ReadExtra, o.run)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	if len(m.waiters) == 0 && m.requested == 0 {
		delete(c.mshrs, p.Line)
		l.mshr = nil
		c.refreshBusy(p.Line, l)
		c.retireMSHR(m)
		c.tsnk.Event(uint64(c.eng.Now()), trace.KAccessEnd, uint64(p.Line), 0)
		c.checkDrained()
	}
}

// retireMSHR returns a drained MSHR to the free list. The waiter slice
// keeps its capacity but drops its closures so they can be collected.
func (c *Cache) retireMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{}
	}
	m.waiters = m.waiters[:0]
	m.requested = 0
	c.mshrFree = append(c.mshrFree, m)
}

func (c *Cache) regAck(p *coh.Packet) {
	c.chk.Progress()
	if l := c.lookup(p.Line); l != nil {
		take := p.Mask & l.pend
		l.pend &^= take
		l.reg |= take
		c.refreshBusy(p.Line, l)
	}
	rem := c.pendingReg[p.Line] &^ p.Mask
	if rem == 0 {
		delete(c.pendingReg, p.Line)
	} else {
		c.pendingReg[p.Line] = rem
	}
	c.outstanding--
	c.checkDrained()
}

func (c *Cache) serveRemote(p *coh.Packet) {
	c.remoteHits.Inc()
	var vals [memdata.WordsPerLine]uint32
	served := memdata.WordMask(0)
	if l := c.lookup(p.Line); l != nil {
		served = p.Mask & l.owned()
		for m := served; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(uint16(m))
			vals[i] = l.vals[i]
		}
	}
	if rem := p.Mask &^ served; rem != 0 {
		bufMask, bufVals := c.wbuf.Lookup(p.Line, rem)
		for i := 0; i < memdata.WordsPerLine; i++ {
			if bufMask.Has(i) {
				vals[i] = bufVals[i]
				served |= memdata.Bit(i)
			}
		}
	}
	if served != p.Mask {
		panic(fmt.Sprintf("cache %d: forwarded read for words we no longer own (line %#x mask %v served %v)",
			c.node, uint64(p.Line), p.Mask, served))
	}
	if c.p.ChargeEnergy {
		if c.p.TechEnergy {
			c.acct.Add(energy.L1ReadHit, 1)
		} else {
			c.acct.Add(energy.L1Hit, 1)
		}
	}
	if c.p.ReadExtra > 0 {
		// Delay the response by the technology's read latency. The pooled
		// request packet is only valid during this call, so its addressing
		// fields are copied into the closure. All traffic from this cache
		// to the requester is DataResps delayed by the same constant, so
		// per-flow FIFO order is preserved.
		line, mask := p.Line, p.Mask
		reqNode, reqComp := p.ReqNode, p.ReqComp
		c.eng.Schedule(c.p.ReadExtra, func() {
			coh.Send(c.net, &coh.Packet{
				Type: coh.DataResp, Line: line, Mask: mask, Vals: vals,
				SrcNode: c.node, SrcComp: c.comp,
				DstNode: reqNode, DstComp: reqComp,
			})
		})
		return
	}
	coh.Send(c.net, &coh.Packet{
		Type: coh.DataResp, Line: p.Line, Mask: p.Mask, Vals: vals,
		SrcNode: c.node, SrcComp: c.comp,
		DstNode: p.ReqNode, DstComp: p.ReqComp,
	})
}

func (c *Cache) ownerInv(p *coh.Packet) {
	if l := c.lookup(p.Line); l != nil {
		l.reg &^= p.Mask // only Registered words drop to Invalid
	}
}

// SelfInvalidate drops all Shared words (DeNovo self-invalidation at a
// synchronization point); Registered words are kept (paper Section 4.3).
func (c *Cache) SelfInvalidate() {
	c.unwatchAll()
	for i := range c.sets {
		for _, l := range c.sets[i].lines {
			l.shared = 0
		}
	}
}

// WritebackAll lazily writes back every Registered word and invalidates
// the cache. Used for end-of-run verification and by ablations. Sets
// are truncated, not released: the dead lines stay in each slice's
// capacity and are reused by later allocates.
func (c *Cache) WritebackAll() {
	c.unwatchAll()
	for i := range c.sets {
		s := &c.sets[i]
		for _, l := range s.lines {
			c.evict(s, l)
		}
		s.lines = s.lines[:0]
		s.addrs = s.addrs[:0]
		s.stamp = s.stamp[:0]
		s.busyMask = 0
	}
}

// Drain calls done once every outstanding registration, fill, and
// writeback has been acknowledged.
func (c *Cache) Drain(done func()) {
	c.drainWait = append(c.drainWait, done)
	c.checkDrained()
}

func (c *Cache) checkDrained() {
	if c.outstanding != 0 || len(c.mshrs) != 0 || len(c.drainWait) == 0 {
		return
	}
	waiters := c.drainWait
	c.drainWait = nil
	for _, w := range waiters {
		c.eng.Schedule(0, w)
	}
}

// SetChecker attaches the self-check layer; a nil checker (the
// default) costs one nil comparison on each completion.
func (c *Cache) SetChecker(chk *check.Checker) { c.chk = chk }

// SetTrace attaches an event sink. A nil sink (the default) leaves
// every instrumented site a nil-check no-op.
func (c *Cache) SetTrace(snk *trace.Sink) {
	c.tsnk = snk
	c.trMisses = snk.Series("misses")
	c.trWritebacks = snk.Series("writebacks")
}

// Outstanding reports the work the cache is waiting on, for the
// watchdog's work-pending gate: live MSHRs (fills), registrations and
// writebacks in flight, and parked retries whose last attempt found a
// line but no free MSHR or registration slot. A parked retry whose last
// attempt found every way of its set busy is not counted, and never
// was: the busy ways' own fills, registrations or writebacks are.
func (c *Cache) Outstanding() int { return c.outstanding + len(c.mshrs) }

// CheckInvariants verifies the cache's structural invariants without
// changing anything the simulation observes (in particular, without the
// LRU-refreshing lookup; thawing frozen storm sets is exact):
//
//   - every MSHR has work attached (requested words or waiters) and is
//     no older than ageBound (0 disables the age check);
//   - every word with a registration in flight per pendingReg is in
//     PendingReg state if its line is resident;
//   - a non-empty writeback buffer implies outstanding transactions;
//   - no line is resident twice within a set.
func (c *Cache) CheckInvariants(now, ageBound sim.Cycle) error {
	c.unwatchAll()
	for addr, m := range c.mshrs {
		if m.requested == 0 && len(m.waiters) == 0 {
			return fmt.Errorf("mshr %#x: no requested words and no waiters", addr)
		}
		if ageBound > 0 && now-m.born > ageBound {
			return fmt.Errorf("mshr %#x: age %d exceeds bound %d (requested %016b, %d waiters)",
				addr, now-m.born, ageBound, m.requested, len(m.waiters))
		}
	}
	for addr, mask := range c.pendingReg {
		if mask == 0 {
			return fmt.Errorf("pendingReg %#x: empty mask", addr)
		}
		if l := c.peekLine(addr); l != nil {
			if bad := mask &^ l.pend; bad != 0 {
				i := bits.TrailingZeros16(uint16(bad))
				return fmt.Errorf("line %#x word %d: registration in flight but state is %v", addr, i, l.wordState(i))
			}
		}
	}
	if c.wbuf.Len() > 0 && c.outstanding == 0 {
		return fmt.Errorf("writeback buffer holds %d lines with nothing outstanding", c.wbuf.Len())
	}
	if err := c.wbuf.CheckInvariants(); err != nil {
		return err
	}
	wbs := make(map[int]int32)
	c.wbuf.Each(func(line memdata.PAddr) { wbs[c.setIndex(line)]++ })
	for si := range c.sets {
		s := &c.sets[si]
		if s.wbs != wbs[si] {
			return fmt.Errorf("set %d: wbs %d disagrees with %d buffered writebacks", si, s.wbs, wbs[si])
		}
		for i, l := range s.lines {
			if l.addr != s.addrs[i] {
				return fmt.Errorf("set %d way %d: tag array %#x disagrees with line %#x", si, i, s.addrs[i], l.addr)
			}
			if l.wbWait != c.wbuf.Busy(l.addr) {
				return fmt.Errorf("line %#x: wbWait %v disagrees with writeback buffer", l.addr, l.wbWait)
			}
			if want := l.pend != 0 || l.mshr != nil || l.wbWait; s.busyMask&(1<<uint(i)) != 0 != want {
				return fmt.Errorf("set %d way %d: busy bit disagrees with line %#x state", si, i, l.addr)
			}
			for j := i + 1; j < len(s.lines); j++ {
				if s.addrs[j] == l.addr {
					return fmt.Errorf("set %d: line %#x resident twice", si, l.addr)
				}
			}
		}
	}
	return nil
}

// CheckQuiescent verifies the cache has fully drained: no outstanding
// transactions, no MSHRs, no pending registrations, empty writeback
// buffer. It runs at kernel/phase boundaries.
func (c *Cache) CheckQuiescent() error {
	if c.outstanding != 0 {
		return fmt.Errorf("%d transactions still outstanding", c.outstanding)
	}
	if n := len(c.mshrs); n != 0 {
		return fmt.Errorf("%d mshrs still live", n)
	}
	if n := len(c.pendingReg); n != 0 {
		return fmt.Errorf("%d registrations still pending", n)
	}
	if n := c.wbuf.Len(); n != 0 {
		return fmt.Errorf("writeback buffer still holds %d lines", n)
	}
	return nil
}

// peekLine finds addr's resident line without refreshing LRU.
func (c *Cache) peekLine(addr memdata.PAddr) *line {
	s := c.touch(addr)
	for i, a := range s.addrs {
		if a == addr {
			return s.lines[i]
		}
	}
	return nil
}

// OwnsWord reports whether the word at addr is held in Registered
// state, without mutating LRU order. Cross-structure ownership audits
// use it to confirm the LLC's registry against the cache's own state.
func (c *Cache) OwnsWord(addr memdata.PAddr) bool {
	l := c.peekLine(memdata.LineOf(addr))
	return l != nil && l.reg.Has(memdata.WordIndex(addr))
}

// DebugString renders the cache's transient state for failure dumps.
// Map iterations are sorted so the dump is deterministic.
func (c *Cache) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "outstanding=%d mshrs=%d pending-reg=%d wbuf=%d drain-waiters=%d",
		c.outstanding, len(c.mshrs), len(c.pendingReg), c.wbuf.Len(), len(c.drainWait))
	addrs := make([]memdata.PAddr, 0, len(c.mshrs))
	for a := range c.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		m := c.mshrs[a]
		fmt.Fprintf(&sb, "\nmshr %#x requested=%016b waiters=%d born=%d", a, m.requested, len(m.waiters), m.born)
	}
	addrs = addrs[:0]
	for a := range c.pendingReg {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&sb, "\npending-reg %#x mask=%016b", a, c.pendingReg[a])
	}
	return sb.String()
}

// Peek returns the cached value and state of the word at addr, for tests.
func (c *Cache) Peek(addr memdata.PAddr) (uint32, coh.State, bool) {
	l := c.lookup(memdata.LineOf(addr))
	if l == nil {
		return 0, coh.Invalid, false
	}
	w := memdata.WordIndex(addr)
	return l.vals[w], l.wordState(w), true
}
