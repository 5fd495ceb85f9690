// Package cluster scales the runtime past one box: a cluster scheduler owns
// N rt.Runtime "machines" and keeps *global* weighted fairness across them.
//
// The design is two independently simple tiers glued by the node seam
// (internal/rt/node.go):
//
//   - Placement. A new tenant is placed with power-of-k-choices: sample K
//     machines uniformly, probe each one's load summary (rt.NodeLoad), and
//     register on the one whose post-placement weight density
//     (Σweight+w)/workers is lowest. The classic balls-in-bins result is
//     that K=2 already collapses the max-load gap from Θ(log n/log log n)
//     to Θ(log log n), at two probes per placement instead of a full scan.
//
//   - Migration. Placement decisions go stale as weights change and tenants
//     leave, so a background migrator periodically re-plans: it feeds
//     per-machine weight totals into the same pure planner the intra-box
//     shard rebalancer uses (rt.PlanBalance, fuzz-verified to conserve
//     weight and shrink imbalance, with the same fixed hysteresis), offering
//     each machine's tenants in registration order: the migrator cannot read
//     a remote machine's tags, so it ranks none above another, as the
//     rebalancer does for policies without tags. Each move is the SFQ-style
//     frame translation the intra-box rebalancer already performs across
//     shards, carried across machines: drain the source backlog, carry the
//     virtual-time frame lead, re-register under the §2.3 wakeup rule,
//     replay the backlog (rt.Deport / rt.Admit).
//
// The fairness argument and its caveats: within a machine the shard
// scheduler provides the paper's SFS guarantees; across machines fairness
// holds only as far as weight density is equalized, because service is
// granted per-machine with no global virtual time. Migration equalizes
// density at rebalance granularity, so cluster-wide per-tenant divergence
// from the one-giant-machine ideal is bounded by how long a tenant can sit
// on an over-weighted machine — one migration period plus the planner's
// hysteresis band — not by the run length. The deterministic differential
// test (cluster_test.go) pins that bound at 8 machines.
//
// A Cluster composes the Node interface, not *rt.Runtime, so tests stub
// machines with scripted loads and the facade can wrap instrumented nodes.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// Node is one machine as the cluster tier sees it: the slice of rt.Runtime
// the placement and migration logic actually consumes. *rt.Runtime satisfies
// it; tests substitute stubs with scripted loads.
type Node interface {
	Register(name string, weight float64) (*rt.Tenant, error)
	Unregister(tn *rt.Tenant) error
	SetWeight(tn *rt.Tenant, w float64) error
	Load() rt.NodeLoad
	Stats() []rt.TenantStat
	Deport(tn *rt.Tenant) (rt.Departure, error)
	Admit(dep rt.Departure) (*rt.Tenant, error)
	Drain()
	Close()
	CheckInvariants() error
}

var _ Node = (*rt.Runtime)(nil)

// Sentinel errors of the cluster tier. Node-level failures (ErrBackpressure,
// ErrTenantClosed, ...) pass through from internal/rt unwrapped.
var (
	// ErrNoMachines reports a Config with no machines (or Compose with no
	// nodes).
	ErrNoMachines = errors.New("cluster: no machines")
	// ErrClusterClosed reports use of a closed cluster.
	ErrClusterClosed = errors.New("cluster: closed")
)

// DefaultMigrateEvery is the default period of the background migrator.
const DefaultMigrateEvery = 250 * time.Millisecond

// Config configures New. Machine-level fields mirror rt.Config; every
// machine is built identically.
type Config struct {
	// Machines is the number of rt.Runtime instances the cluster owns.
	// Required for New (Compose takes explicit nodes instead).
	Machines int
	// K is the number of machines a placement probes (power-of-k-choices).
	// 0 means 2; values ≥ Machines degrade to best-fit over all machines.
	K int
	// Workers, Policy, Quantum, Clock, Manual and Preempt configure each
	// machine exactly as the same rt.Config fields do, QueueCap as
	// Intake.QueueCap and Enforce as Enforcement.Enabled; every other
	// rt.Config field keeps its default (one shard per machine).
	Workers  int
	Policy   rt.Policy
	Quantum  simtime.Duration
	Clock    rt.Clock
	QueueCap int
	Manual   bool
	Preempt  bool
	Enforce  bool
	// MigrateEvery is the period of the background cross-machine migrator.
	// 0 means DefaultMigrateEvery; negative disables the background loop
	// (Rebalance may still be called directly). Manual mode never starts
	// the loop.
	MigrateEvery time.Duration
	// Seed seeds the deterministic placement sampler. Two clusters built
	// with the same seed and fed the same registration sequence place
	// identically.
	Seed uint64
}

// Cluster is a scheduler over N machines. All methods are safe for
// concurrent use.
//
// Lock order: migMu → regMu → Tenant.mu → anything inside a node. A path
// may skip levels but never climbs.
type Cluster struct {
	nodes   []Node
	workers []int // per-machine worker counts, fixed by Compose
	k       int
	closed  atomic.Bool

	regMu   sync.Mutex
	rng     *xrand.Rand
	tenants []*Tenant // live tenants in registration order
	scratch []int     // placement sampling buffer, guarded by regMu

	migMu      sync.Mutex // serializes Rebalance passes
	migrations atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Tenant is a cluster-level tenant handle: a name with a current (machine,
// rt.Tenant) binding that migration rewrites; the weight lives on the bound
// rt.Tenant. SubmitTask calls hold the binding read-locked, so a tenant with
// a submit in flight is simply skipped by the migrator (rt.Deport would
// refuse it anyway).
type Tenant struct {
	c    *Cluster
	name string

	mu     sync.RWMutex
	node   int
	tn     *rt.Tenant
	closed bool
}

// New builds a cluster of cfg.Machines identical machines and, unless
// cfg.Manual is set or cfg.MigrateEvery is negative, starts the background
// migrator.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines <= 0 {
		return nil, ErrNoMachines
	}
	nodes := make([]Node, cfg.Machines)
	for i := range nodes {
		nodes[i] = rt.New(rt.Config{
			Workers:     cfg.Workers,
			Policy:      cfg.Policy,
			Quantum:     cfg.Quantum,
			Clock:       cfg.Clock,
			Manual:      cfg.Manual,
			Preempt:     cfg.Preempt,
			Enforcement: rt.EnforcementConfig{Enabled: cfg.Enforce},
			Intake:      rt.IntakeConfig{QueueCap: cfg.QueueCap},
		})
	}
	return Compose(cfg, nodes...)
}

// Compose builds a cluster over caller-supplied nodes — the seam that lets
// tests stub machines and callers wrap instrumented runtimes. Machine-level
// Config fields are ignored; the nodes are taken as built, and each one's
// worker count is read once here, so a node must report at least one.
func Compose(cfg Config, nodes ...Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, ErrNoMachines
	}
	workers := make([]int, len(nodes))
	for i, n := range nodes {
		if workers[i] = n.Load().Workers; workers[i] < 1 {
			return nil, errf("machine %d reports %d workers", i, workers[i])
		}
	}
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	c := &Cluster{
		nodes:   nodes,
		workers: workers,
		k:       k,
		rng:     xrand.New(cfg.Seed),
		scratch: make([]int, len(nodes)),
	}
	every := cfg.MigrateEvery
	if every == 0 {
		every = DefaultMigrateEvery
	}
	if !cfg.Manual && every > 0 {
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go c.migrateLoop(every)
	}
	return c, nil
}

// Machines returns the number of machines in the cluster.
func (c *Cluster) Machines() int { return len(c.nodes) }

// Node returns machine i, for drivers that must reach the underlying
// runtime (Manual-mode tests type-assert to *rt.Runtime).
func (c *Cluster) Node(i int) Node { return c.nodes[i] }

// Register places a tenant with power-of-k-choices and registers it on the
// chosen machine: of K distinct uniformly sampled machines, the one whose
// weight density (Σweight + w) / workers would be lowest after the
// placement wins; ties prefer the shorter queue, then the lower index.
func (c *Cluster) Register(name string, weight float64) (*Tenant, error) {
	if c.closed.Load() {
		return nil, ErrClusterClosed
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	best := -1
	var bestDensity float64
	var bestQueued int
	for _, i := range c.sampleLocked() {
		load := c.nodes[i].Load()
		density := (load.Weight + weight) / float64(c.workers[i])
		if best < 0 || density < bestDensity ||
			(density == bestDensity && load.Queued < bestQueued) {
			best, bestDensity, bestQueued = i, density, load.Queued
		}
	}
	tn, err := c.nodes[best].Register(name, weight)
	if err != nil {
		return nil, err
	}
	t := &Tenant{c: c, name: name, node: best, tn: tn}
	c.tenants = append(c.tenants, t)
	return t, nil
}

// sampleLocked returns K distinct machine indices, uniformly without
// replacement (partial Fisher–Yates over the scratch index buffer).
func (c *Cluster) sampleLocked() []int {
	for i := range c.scratch {
		c.scratch[i] = i
	}
	for i := 0; i < c.k; i++ {
		j := i + c.rng.Intn(len(c.scratch)-i)
		c.scratch[i], c.scratch[j] = c.scratch[j], c.scratch[i]
	}
	return c.scratch[:c.k]
}

// Unregister removes a tenant from its machine, with rt.Unregister's
// semantics (backlog dropped, in-flight slice finishes and is charged).
func (c *Cluster) Unregister(t *Tenant) error {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return rt.ErrTenantClosed
	}
	err := c.nodes[t.node].Unregister(t.tn)
	t.closed = true
	for i, x := range c.tenants {
		if x == t {
			c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
			break
		}
	}
	return err
}

// SetWeight changes a tenant's weight on the fly, on whichever machine
// currently hosts it; the next migrator pass sees the new density.
func (c *Cluster) SetWeight(t *Tenant, w float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return rt.ErrTenantClosed
	}
	return c.nodes[t.node].SetWeight(t.tn, w)
}

// Name returns the tenant's display name.
func (t *Tenant) Name() string { return t.name }

// Machine returns the index of the machine currently hosting the tenant.
func (t *Tenant) Machine() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.node
}

// Service returns the tenant's cumulative charged service, wherever it
// accrued: migration carries the running total across machines
// (rt.Departure.Service), so the value is continuous over moves.
func (t *Tenant) Service() simtime.Duration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return 0
	}
	return t.tn.Service()
}

// Queued reports the tenant's accepted-but-unretired task count.
func (t *Tenant) Queued() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return 0
	}
	return t.tn.Queued()
}

// SubmitTask appends a task to the tenant's backlog on its current machine,
// with rt.Tenant.SubmitTask's semantics and options. The binding is held
// read-locked for the duration, so migration never strands a submission.
func (t *Tenant) SubmitTask(task rt.Task, opts ...rt.SubmitOption) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return rt.ErrTenantClosed
	}
	return t.tn.SubmitTask(task, opts...)
}

// Rebalance runs one migration pass and reports how many tenants moved.
// Concurrent passes serialize; the background loop calls this on its period.
//
// The pass is planner-driven: per-machine weight totals and worker counts
// feed rt.PlanBalance (the fuzz-verified pure planner of the intra-box
// rebalancer), with each machine's tenants offered in registration order —
// the migrator cannot read a remote machine's tags, so it prefers none.
// Tenants that are busy — mid-slice on a worker, holding a submit in
// flight — are skipped when the move reaches them (rt.ErrMigrationRace) and
// retried on a later pass; an unfinished head task is no obstacle, it
// travels in the deported backlog and resumes on the destination.
func (c *Cluster) Rebalance() int {
	if c.closed.Load() {
		return 0
	}
	c.migMu.Lock()
	defer c.migMu.Unlock()

	c.regMu.Lock()
	tenants := slices.Clone(c.tenants)
	c.regMu.Unlock()

	// Each live tenant's binding and weight, read under a brief read-lock
	// each: the snapshot is per-tenant consistent, which is all a plan
	// needs (migrateTenant re-checks the binding).
	byNode := make([][]*Tenant, len(c.nodes))
	movable := make([][]float64, len(c.nodes))
	for _, t := range tenants {
		t.mu.RLock()
		if !t.closed {
			byNode[t.node] = append(byNode[t.node], t)
			movable[t.node] = append(movable[t.node], t.tn.Weight())
		}
		t.mu.RUnlock()
	}
	totals := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		totals[i] = n.Load().Weight
	}

	moved := 0
	for _, m := range rt.PlanBalance(totals, c.workers, movable) {
		if c.migrateTenant(byNode[m.Src][m.Idx], m.Src, m.Dst) {
			moved++
		}
	}
	return moved
}

// migrateTenant moves one tenant from machine src to dst: deport (drain
// backlog + capture frame lead), admit on the destination (re-register,
// restore lead, replay backlog), rewrite the binding. Any conflict — the
// binding changed since the plan, the tenant is busy, another writer holds
// it — skips the move; the next pass re-plans from fresh state.
func (c *Cluster) migrateTenant(t *Tenant, src, dst int) bool {
	if src == dst || !t.mu.TryLock() {
		return false
	}
	defer t.mu.Unlock()
	if t.closed || t.node != src {
		return false
	}
	dep, err := c.nodes[src].Deport(t.tn)
	if err != nil {
		return false // busy (ErrMigrationRace) or just closed; skip
	}
	tn, err := c.nodes[dst].Admit(dep)
	if err != nil {
		// Destination refused (closing runtime, mid-replay close). Put the
		// tenant back where it was; if even that fails the cluster is
		// closing and the handle dies.
		if tn, err = c.nodes[src].Admit(dep); err != nil {
			t.closed = true
			return false
		}
		t.tn = tn
		return false
	}
	t.tn = tn
	t.node = dst
	c.migrations.Add(1)
	return true
}

// Migrations returns the cumulative count of completed cross-machine
// migrations.
func (c *Cluster) Migrations() int64 { return c.migrations.Load() }

func (c *Cluster) migrateLoop(every time.Duration) {
	defer c.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.Rebalance()
		}
	}
}

// Drain blocks until every machine is quiescent (or closed).
func (c *Cluster) Drain() {
	for _, n := range c.nodes {
		n.Drain()
	}
}

// Close stops the migrator and closes every machine. Idempotent.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.stop != nil {
		close(c.stop)
	}
	c.wg.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
}

// CheckInvariants verifies cluster-level consistency: every machine's own
// invariants hold, every live tenant's binding points at a machine that
// still knows it, and weight is conserved — each machine's weight total
// equals the weights its runtime reports for the live tenants the cluster
// binds there (placement and migration neither mint nor destroy weight).
// Migration is frozen for the duration.
func (c *Cluster) CheckInvariants() error {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	for i, n := range c.nodes {
		if err := n.CheckInvariants(); err != nil {
			return errf("machine %d: %v", i, err)
		}
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	var want float64
	perNode := make([]float64, len(c.nodes))
	perNodeCount := make([]int, len(c.nodes))
	for _, t := range c.tenants {
		t.mu.RLock()
		if !t.closed {
			w := t.tn.Weight()
			want += w
			perNode[t.node] += w
			perNodeCount[t.node]++
		}
		t.mu.RUnlock()
	}
	var got float64
	for i, n := range c.nodes {
		load := n.Load()
		got += load.Weight
		if load.Tenants != perNodeCount[i] {
			return errf("machine %d hosts %d tenants but the cluster binds %d there",
				i, load.Tenants, perNodeCount[i])
		}
		if !close64(load.Weight, perNode[i]) {
			return errf("machine %d carries weight %g but the cluster binds %g there",
				i, load.Weight, perNode[i])
		}
	}
	if !close64(got, want) {
		return errf("weight not conserved: machines carry %g, tenants hold %g", got, want)
	}
	return nil
}

func close64(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if b > scale {
		scale = b
	} else if -b > scale {
		scale = -b
	}
	return d <= 1e-9*(1+scale)
}

func errf(format string, args ...any) error {
	return fmt.Errorf("cluster: "+format, args...)
}
