package cache

import (
	"reflect"
	"sort"
	"testing"

	"stash/internal/coh"
	"stash/internal/energy"
	"stash/internal/memdata"
	"stash/internal/noc"
	"stash/internal/sim"
	"stash/internal/stats"
)

// Replay-storm tests. A storm is a run of structurally stalled accesses
// (all MSHRs busy, the registration buffer full, or every way of a set
// unevictable) that re-issue every 4 cycles. Each stalled re-issue runs
// allocate, whose evictions and LRU updates are visible to later
// accesses, so the tests pin completion cycles, eviction counts and the
// final residency of the storm set in LRU order.

// conflictLine returns the i-th line that maps to the given set.
func conflictLine(set, i int) memdata.PAddr {
	p := DefaultParams()
	numSets := p.SizeBytes / memdata.LineBytes / p.Ways
	return memdata.PAddr((set + i*numSets) * memdata.LineBytes)
}

// issueLoads loads word w of each line through c; done[i] receives the
// cycle load i completed (0 while it has not).
func (r *rig) issueLoads(c *Cache, lines []memdata.PAddr, words []int) []sim.Cycle {
	done := make([]sim.Cycle, len(lines))
	for i, a := range lines {
		i := i
		c.Load(a, memdata.Bit(words[i]), func([memdata.WordsPerLine]uint32) { done[i] = r.eng.Now() })
	}
	return done
}

// issueStores stores to word 0 of each line through c; done[i]
// receives the cycle store i was accepted.
func (r *rig) issueStores(c *Cache, lines []memdata.PAddr) []sim.Cycle {
	done := make([]sim.Cycle, len(lines))
	for i, a := range lines {
		i := i
		var vals [memdata.WordsPerLine]uint32
		vals[0] = uint32(i + 1)
		c.Store(a, memdata.Bit(0), vals, func() { done[i] = r.eng.Now() })
	}
	return done
}

// holders returns one line in each of sets first..first+n-1.
func holders(first, n int) []memdata.PAddr {
	out := make([]memdata.PAddr, n)
	for i := range out {
		out[i] = conflictLine(first+i, 0)
	}
	return out
}

// stormLines returns the set-0 lines of the given conflict indices.
func stormLines(idx ...int) []memdata.PAddr {
	out := make([]memdata.PAddr, len(idx))
	for i, k := range idx {
		out[i] = conflictLine(0, k)
	}
	return out
}

func zeros(n int) []int { return make([]int, n) }

// residentLRU lists the lines resident in set si, most recently used
// first, without refreshing LRU.
func residentLRU(c *Cache, si int) []memdata.PAddr {
	s := &c.sets[si]
	ways := make([]int, len(s.addrs))
	for i := range ways {
		ways[i] = i
	}
	sort.Slice(ways, func(a, b int) bool { return s.stamp[ways[a]] > s.stamp[ways[b]] })
	out := make([]memdata.PAddr, len(ways))
	for i, w := range ways {
		out[i] = s.addrs[w]
	}
	return out
}

type stormOutcome struct {
	done      []sim.Cycle
	evictions uint64
	resident  []memdata.PAddr
}

func (r *rig) outcome(done []sim.Cycle) stormOutcome {
	return stormOutcome{done: done, evictions: r.set.Sum("l1.a.evictions"), resident: residentLRU(r.a, 0)}
}

func checkOutcome(t *testing.T, got, want stormOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.done, want.done) {
		t.Errorf("completion cycles = %v, want %v", got.done, want.done)
	}
	if got.evictions != want.evictions {
		t.Errorf("evictions = %d, want %d", got.evictions, want.evictions)
	}
	if !reflect.DeepEqual(got.resident, want.resident) {
		t.Errorf("set 0 residents (MRU first) = %#x, want %#x", got.resident, want.resident)
	}
}

// Twelve stalled loads rotate through set 0's eight ways (more parked
// lines than evictable ways) while sixteen misses elsewhere hold every
// MSHR; the storm ends as those fills free MSHRs one by one.
func TestStormMoreLinesThanWays(t *testing.T) {
	r := newRig(t)
	r.issueLoads(r.a, holders(1, 16), zeros(16))
	storm := stormLines(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	done := r.issueLoads(r.a, storm, zeros(len(storm)))
	r.eng.At(100, func() { requireFrozen(t, r.a, 0) })
	r.eng.Run()
	checkOutcome(t, r.outcome(done), stormOutcome{
		done:      []sim.Cycle{405, 412, 419, 426, 433, 440, 447, 454, 609, 617, 625, 633},
		evictions: 657,
		resident:  stormLines(11, 10, 9, 8, 7, 6, 5, 4),
	})
}

// Stalled loads with duplicate lines: several parked accesses of one
// set name the same line with different words.
func TestStormDuplicateLines(t *testing.T) {
	r := newRig(t)
	r.issueLoads(r.a, holders(1, 16), zeros(16))
	idx := []int{0, 1, 2, 0, 3, 1, 4, 5, 0, 6, 7, 8, 2, 9}
	words := []int{0, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 1, 0}
	done := r.issueLoads(r.a, stormLines(idx...), words)
	r.eng.At(100, func() { requireFrozen(t, r.a, 0) })
	r.eng.Run()
	checkOutcome(t, r.outcome(done), stormOutcome{
		done:      []sim.Cycle{405, 412, 419, 405, 426, 412, 433, 440, 405, 447, 454, 609, 419, 617},
		evictions: 491,
		resident:  stormLines(9, 8, 7, 6, 5, 4, 3, 2),
	})
}

// Ten stores to set 0 stall on a full registration buffer; each
// RegAck frees one slot, and the next parked store takes it.
func TestStormRegistrationBuffer(t *testing.T) {
	r := newRig(t)
	r.issueStores(r.a, holders(1, 16))
	storm := stormLines(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	done := r.issueStores(r.a, storm)
	drained := sim.Cycle(0)
	r.a.Drain(func() { drained = r.eng.Now() })
	r.eng.At(100, func() { requireFrozen(t, r.a, 0) })
	r.eng.Run()
	checkOutcome(t, r.outcome(done), stormOutcome{
		done:      []sim.Cycle{201, 205, 205, 209, 213, 213, 213, 213, 405, 409},
		evictions: 524,
		resident:  stormLines(9, 8, 7, 6, 5, 4, 3, 2),
	})
	if drained != 615 {
		t.Errorf("drained at cycle %d, want 615", drained)
	}
}

// A foreign load joins the storm set mid-period, and Peek refreshes a
// storm line's LRU position mid-period: both must see, and change, the
// set exactly as the unparked storm would.
func TestStormThawForeignLoad(t *testing.T) {
	r := newRig(t)
	r.issueLoads(r.a, holders(1, 16), zeros(16))
	storm := stormLines(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	done := r.issueLoads(r.a, storm, zeros(len(storm)))
	var foreign []sim.Cycle
	r.eng.At(101, func() {
		requireFrozen(t, r.a, 0)
		foreign = r.issueLoads(r.a, stormLines(20), zeros(1))
	})
	r.eng.At(150, func() { r.a.Peek(conflictLine(0, 7)) })
	r.eng.At(151, func() { r.a.OwnsWord(conflictLine(0, 3)) })
	r.eng.Run()
	checkOutcome(t, r.outcome(append(done, foreign...)), stormOutcome{
		done:      []sim.Cycle{409, 416, 423, 430, 437, 444, 451, 609, 616, 623, 630, 637, 402},
		evictions: 688,
		resident:  stormLines(11, 10, 9, 8, 7, 6, 5, 4),
	})
}

// Another event sits between two storm batches of one cycle and
// schedules a foreign load 4 cycles out: the retries deferred before it
// must re-issue before that load, the ones deferred after it after.
func TestStormBatchFIFO(t *testing.T) {
	r := newRig(t)
	r.issueLoads(r.a, holders(1, 16), zeros(16))
	first := r.issueLoads(r.a, stormLines(0, 1, 2, 3, 4, 5), zeros(6))
	var foreign []sim.Cycle
	r.eng.Schedule(4, func() {
		r.eng.Schedule(4, func() { foreign = r.issueLoads(r.a, stormLines(20), zeros(1)) })
	})
	second := r.issueLoads(r.a, stormLines(6, 7, 8, 9, 10, 11), zeros(6))
	r.eng.Run()
	done := append(append(first, second...), foreign...)
	checkOutcome(t, r.outcome(done), stormOutcome{
		done:      []sim.Cycle{405, 412, 419, 426, 433, 440, 454, 609, 617, 625, 633, 640, 447},
		evictions: 713,
		resident:  []memdata.PAddr{0xb000, 0xa000, 0x9000, 0x8000, 0x7000, 0x6000, 0x14000, 0x5000},
	})
}

// WritebackAll lands mid-storm: every line of every set, the storm
// set's included, is written back and dropped, and the parked stores
// re-install from an empty set.
func TestStormThawWritebackAll(t *testing.T) {
	r := newRig(t)
	r.issueStores(r.a, holders(1, 16))
	storm := stormLines(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	done := r.issueStores(r.a, storm)
	r.eng.At(101, func() {
		requireFrozen(t, r.a, 0)
		r.a.WritebackAll()
	})
	r.eng.Run()
	checkOutcome(t, r.outcome(done), stormOutcome{
		done:      []sim.Cycle{201, 205, 205, 209, 213, 213, 213, 213, 405, 409},
		evictions: 540,
		resident:  stormLines(9, 8, 7, 6, 5, 4, 3, 2),
	})
	if got := r.set.Sum("l1.a.writebacks"); got != 2 {
		t.Errorf("writebacks = %d, want 2", got)
	}
}

// requireFrozen fails the test unless set si of c has frozen its storm,
// so the test exercises the parked path rather than plain re-issues.
func requireFrozen(t *testing.T, c *Cache, si int) {
	t.Helper()
	if !c.sets[si].frozen {
		t.Fatalf("cycle %d: set %d storm is not frozen", c.eng.Now(), si)
	}
}

// deadRig is a rig whose LLC banks swallow every request: misses never
// fill and registrations are never acknowledged, so a storm on cache a
// runs for as long as the test drives the engine.
func deadRig() *rig {
	eng := sim.NewEngine()
	acct := energy.NewAccount(energy.DefaultCosts())
	set := stats.NewSet()
	net := noc.New(eng, 4, 4, acct, set)
	r := &rig{eng: eng, net: net, mem: memdata.NewMemory(), acct: acct, set: set}
	for n := 0; n < 16; n++ {
		router := coh.NewRouter()
		router.Attach(coh.ToLLC, blackHole{})
		if n == 1 {
			r.a = New(eng, net, n, "a", DefaultParams(), acct, set)
			router.Attach(coh.ToL1, r.a)
		}
		net.Register(n, func(m *noc.Message) { router.Deliver(m.Payload.(*coh.Packet)) })
	}
	return r
}

type blackHole struct{}

func (blackHole) HandlePacket(*coh.Packet) {}

// deadStorm parks a never-ending storm on deadRig's cache a: eight
// MSHRs pin every way of set 0, so six more loads there find no way
// (allocate returns nil), and ten loads rotate through set 9's ways
// against the full MSHR file.
func deadStorm(r *rig) {
	set0 := stormLines(0, 1, 2, 3, 4, 5, 6, 7)
	r.issueLoads(r.a, set0, zeros(8))
	r.issueLoads(r.a, holders(1, 8), zeros(8))
	r.issueLoads(r.a, stormLines(8, 9, 10, 11, 12, 13), zeros(6))
	set9 := make([]memdata.PAddr, 10)
	for i := range set9 {
		set9[i] = conflictLine(9, i+1)
	}
	r.issueLoads(r.a, set9, zeros(10))
}

// The storm's evictions grow exactly one rotation per round, across
// every access of the set that lands mid-period. Each reading first
// reads the storm set (OwnsWord): a parked storm may bring the eviction
// counter up to date only when its set is next accessed.
func TestStormDeadLLCCounts(t *testing.T) {
	r := deadRig()
	deadStorm(r)
	var got []uint64
	for _, step := range []func(){
		func() {},
		func() {
			if err := r.a.CheckInvariants(r.eng.Now(), 0); err != nil {
				t.Fatal(err)
			}
		},
		func() { r.a.Peek(conflictLine(9, 5)) },
		func() { r.a.SelfInvalidate() },
	} {
		r.eng.RunFor(1001)
		requireFrozen(t, r.a, 0)
		requireFrozen(t, r.a, 9)
		step()
		r.a.OwnsWord(conflictLine(9, 3))
		got = append(got, r.set.Sum("l1.a.evictions"))
	}
	if want := []uint64{2502, 5002, 7502, 10011}; !reflect.DeepEqual(got, want) {
		t.Errorf("evictions after each step = %v, want %v", got, want)
	}
	want := []memdata.PAddr{0xa240, 0x9240, 0x8240, 0x7240, 0x6240, 0x5240, 0x4240, 0x3240}
	if res := residentLRU(r.a, 9); !reflect.DeepEqual(res, want) {
		t.Errorf("set 9 residents (MRU first) = %#x, want %#x", res, want)
	}
}

// A warmed-up storm re-issues its parked accesses without allocating.
func TestStormZeroAllocSteadyState(t *testing.T) {
	r := deadRig()
	deadStorm(r)
	r.eng.RunFor(2000)
	if avg := testing.AllocsPerRun(100, func() { r.eng.RunFor(4) }); avg != 0 {
		t.Fatalf("steady-state storm allocates %v allocs per 4 cycles, want 0", avg)
	}
}

// BenchmarkStormReissue measures one parked re-issue in a warmed-up
// storm shaped like surf/Cache's: sixteen sets, each with sixty stalled
// loads over ten lines, against a full MSHR file that never drains.
func BenchmarkStormReissue(b *testing.B) {
	r := deadRig()
	r.issueLoads(r.a, holders(16, 16), zeros(16))
	for set := 0; set < 16; set++ {
		storm := make([]memdata.PAddr, 60)
		for i := range storm {
			storm[i] = conflictLine(set, 1+i%10)
		}
		r.issueLoads(r.a, storm, zeros(len(storm)))
	}
	r.eng.RunFor(1000)
	b.ResetTimer()
	// Every 4 cycles re-issue each of the 960 parked loads once.
	for i := 0; i < b.N; i += 960 {
		r.eng.RunFor(4)
	}
}
