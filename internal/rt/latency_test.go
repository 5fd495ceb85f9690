package rt

// White-box tests of the latency summaries Stats and ShardStats return: each
// histogram keeps its last summary and re-cuts it only when its count moved,
// and the two caches a Tenant carries must not push it out of its allocation
// size class. A registration's live footprint and Dispatched's size class are
// guarded here too.

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sfsched/internal/simtime"
)

// TestLatencySummaryCache drives a seeded Manual interleaving of submits,
// dispatches, completions, enforcement passes (handoffs included), steals and
// metric polls over two shards, and checks every LatencyStat a poll returns
// against a from-scratch summary of the same histogram. Polls often find a
// histogram unchanged, or grown without a new maximum: a cache keyed on
// anything but the sample count serves a stale summary there.
func TestLatencySummaryCache(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 2, Manual: true, Clock: clock,
		Quantum:     2 * simtime.Millisecond,
		Preempt:     true,
		Enforcement: EnforcementConfig{Enabled: true, Tick: simtime.Millisecond},
		Sharding:    ShardingConfig{Shards: 2, Steal: true},
		Intake:      IntakeConfig{QueueCap: 4}})
	defer r.Close()
	rng := rand.New(rand.NewSource(27))
	var tenants []*Tenant
	for i := 0; i < 8; i++ {
		tn, err := r.Register("t", float64(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	check := func(step int, what string, got LatencyStat, h *latencyHist) {
		t.Helper()
		if want := latencyStatOf(&h.Histogram); got != want {
			t.Fatalf("step %d: %s summary %+v, from scratch %+v", step, what, got, want)
		}
	}
	inflight := make([]*Dispatched, r.Workers())
	var detached []*Dispatched
	cuts := make([]uint64, len(tenants)) // each tenant's dispatch cut before a poll
	var hits int                         // summaries served from a cut taken at a nonzero count
	for step := 0; step < 6000; step++ {
		clock.Advance(simtime.Duration(1 + rng.Intn(400)))
		switch k := rng.Intn(20); {
		case k < 7:
			_ = tenants[rng.Intn(len(tenants))].SubmitTask(Once(func() {}), NoWait())
		case k < 10:
			if w := rng.Intn(len(inflight)); inflight[w] == nil {
				inflight[w] = r.Dispatch(w)
			}
		case k < 12:
			if w := rng.Intn(len(inflight)); inflight[w] != nil {
				inflight[w].Complete(rng.Intn(3) > 0)
				inflight[w] = nil
			}
		case k == 12:
			if n := len(detached); n > 0 {
				detached[n-1].Complete(rng.Intn(2) > 0)
				detached = detached[:n-1]
			}
		case k == 13:
			r.Enforce()
			for w, d := range inflight {
				if d != nil && d.Detached() {
					detached = append(detached, d)
					inflight[w] = nil
				}
			}
		case k == 14:
			r.TrySteal(rng.Intn(r.Workers()))
		case k < 17:
			for i, tn := range tenants {
				cuts[i] = tn.waitHist.cutAt
			}
			for i, st := range r.Stats() { // registration order: nobody leaves
				tn := tenants[i]
				if st.Dispatch.Count > 0 && st.Dispatch.Count == cuts[i] {
					hits++
				}
				check(step, "tenant dispatch", st.Dispatch, &tn.waitHist)
				check(step, "tenant wake", st.Wake, &tn.wakeHist)
			}
		default:
			for i, st := range r.ShardStats() {
				sh := r.shards[i]
				check(step, "shard overrun", st.Overrun, &sh.overrunHist)
				check(step, "shard steal wait", st.StealWait, &sh.stealHist)
				check(step, "shard dispatch", st.Dispatch, &sh.waitHist)
				check(step, "shard wake", st.Wake, &sh.wakeHist)
				check(step, "shard intake", st.Intake, &sh.intakeHist)
			}
		}
	}
	for _, sh := range r.shards {
		for name, h := range map[string]*latencyHist{"overrun": &sh.overrunHist, "steal wait": &sh.stealHist,
			"dispatch": &sh.waitHist, "wake": &sh.wakeHist, "intake": &sh.intakeHist} {
			if h.Count() == 0 {
				t.Errorf("shard %d recorded no %s sample: the interleaving misses a histogram", sh.id, name)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no poll found a histogram unchanged since its last cut")
	}
}

// TestTenantSizeClass keeps Tenant inside Go's 896-byte allocation size
// class, which an object this large shares with an 8-byte header. Its two
// latency histograms keep only their low tier inline (metrics.Histogram): with
// all 256 buckets inline they took 2 080 of its 2 296 bytes, in the 2 304-byte
// class. Staying under 4 096 bytes also keeps explicit nil checks off Tenant's
// fields: past that offset the compiler loads byte 0 to check the pointer, as
// it does for a shard (TestShardHeaderLineIsConstant).
func TestTenantSizeClass(t *testing.T) {
	const sizeClass, header = 896, 8
	var tn Tenant
	if size := unsafe.Sizeof(tn); size+header > sizeClass {
		t.Fatalf("Tenant is %d bytes: with its %d-byte allocation header it leaves the %d-byte size class "+
			"(sfsbench peak_rss_mb medians, seed 1, 2 vCPUs: flood 32.5 MB in this class against 47.9 MB in the "+
			"2 304-byte one over 25 s, wake 26.1 against 30.3 MB over 8 s)", size, header, sizeClass)
	}
}

// TestTenantFootprint bounds what one registration keeps live, read from the
// heap as 4 096 tenants — flood's count — register on a Manual runtime with
// QueueCap 4. Register allocates four objects and one shard-set entry, and no
// run-queue or φ-tracker entry: a tenant enters those at its first submit.
// The bound is their size classes:
//
//	Tenant           776 B + 8 B header     896
//	sched.Thread     248 B                  256
//	backlog          4 × 24 B                96
//	notFull          sync.Cond, 56 B         64
//	shard-set slot   below                   48
//	                                       ----
//	                                       1360
//
// A slot of the map[*Tenant]struct{} is 16 bytes (the key, padded past the
// empty value) plus a control byte. Just after a table doubles only 7/16 of
// its slots are full: 17 × 16/7 ≈ 39 bytes a tenant, 48 with the table's
// size-class rounding. It reads ≈ 1 340 bytes a tenant, and ≈ 2 750 with
// Tenant in the 2 304-byte class.
func TestTenantFootprint(t *testing.T) {
	const tenants, bound = 4096, 896 + 256 + 96 + 64 + 48
	r := New(Config{Workers: 1, Manual: true, Clock: NewFakeClock(), Intake: IntakeConfig{QueueCap: 4}})
	defer r.Close()
	kept := make([]*Tenant, 0, tenants)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < tenants; i++ {
		tn, err := r.Register("tenant", float64(1+i%4))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, tn)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / tenants; per > bound {
		t.Fatalf("a registered tenant keeps %.0f bytes live, want ≤ %d (Tenant %d bytes)", per, bound, unsafe.Sizeof(Tenant{}))
	}
}

// TestDispatchedSizeClass keeps Dispatched in an allocation size class that
// is a whole number of cache lines (128 bytes today). New allocates the
// per-worker records (dslots) back to back, and each worker writes its own on
// every task; in the 112-byte class two workers' records share a line. A
// version that derived r and local instead of storing them was 104 bytes, and
// flood lost 7 of 8 alternating pairs against the 120-byte record (median
// 2.03 → 1.82 M tasks/s, −10.5 %, 2 vCPUs).
func TestDispatchedSizeClass(t *testing.T) {
	const line = 64
	// Go's size classes up to 512 bytes; objects this small carry no header.
	classes := []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192,
		208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512}
	var d Dispatched
	size := unsafe.Sizeof(d)
	i, _ := slices.BinarySearch(classes, size)
	if i == len(classes) {
		t.Fatalf("Dispatched is %d bytes, past the small size classes this guard knows", size)
	}
	if class := classes[i]; class%line != 0 {
		t.Fatalf("Dispatched is %d bytes, in the %d-byte size class: back-to-back per-worker records "+
			"then share a cache line every worker writes per task (measured at 104 bytes: flood −10.5 %%)",
			size, class)
	}
}
