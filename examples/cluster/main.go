// cluster demonstrates the cluster tier through the facade: sfsched.NewCluster
// builds N independent runtimes ("machines"), places weighted tenants across
// them with power-of-k-choices, and keeps weight density equalized with
// surplus-driven cross-machine migration — so the paper's proportional-share
// guarantee holds cluster-wide even though no machine ever sees the whole
// tenant population.
//
//	go run ./examples/cluster [-policy sfs] [-machines 8] [-k 2] [-workers 16]
//	                          [-per-tier 0] [-duration 2s] [-slice 5ms]
//	                          [-migrate-every 250ms]
//
// Tenants come in the usual 4:3:2:1 tiers (platinum/gold/silver/bronze) and
// hold their granted slices with timed occupancy, so a cluster far wider than
// the host's core count is emulable anywhere; the contended resource is the
// machines' worker slots, granted in weighted virtual-time order. -per-tier 0
// sizes the population to twice the cluster's worker slots so every machine
// stays contended (with fewer tenants than workers the split is demand-bound
// and weights cannot matter). Try -k 1: random placement leaves machines
// measurably imbalanced, and the migration counter shows the migrator pulling
// density back — with k=2 placement alone is already so balanced the migrator
// rarely needs to act.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sfsched"
	"sfsched/internal/metrics"
)

func main() {
	policy := flag.String("policy", "sfs", "dispatch policy on every machine: sfs, sfq, timeshare, ...")
	machines := flag.Int("machines", 8, "machines in the cluster")
	k := flag.Int("k", 2, "placement probes per registration (power-of-k-choices)")
	workers := flag.Int("workers", 16, "worker pool size of each machine")
	perTier := flag.Int("per-tier", 0,
		"tenants per weight tier (0 = sized to twice the cluster's worker slots)")
	duration := flag.Duration("duration", 2*time.Second, "load duration")
	slice := flag.Duration("slice", 5*time.Millisecond, "per-dispatch occupancy cap")
	migrateEvery := flag.Duration("migrate-every", 250*time.Millisecond,
		"background migrator period (negative disables migration)")
	flag.Parse()

	p, err := sfsched.PolicyByName(*policy, 10*sfsched.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines:     *machines,
		K:            *k,
		Workers:      *workers,
		Policy:       p,
		QueueCap:     2,
		MigrateEvery: *migrateEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer c.Close()

	n := *perTier
	if n <= 0 {
		n = *machines * *workers / 2
		if n < *machines {
			n = *machines
		}
	}
	tiers := []struct {
		name   string
		weight float64
	}{{"platinum", 4}, {"gold", 3}, {"silver", 2}, {"bronze", 1}}
	var totalWeight float64
	for _, tier := range tiers {
		for i := 0; i < n; i++ {
			t, err := c.Register(fmt.Sprintf("%s-%d", tier.name, i), tier.weight)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			totalWeight += tier.weight
			cap := *slice
			if err := t.SubmitTask(func(s sfsched.Duration) bool {
				d := s.Std()
				if d > cap {
					d = cap
				}
				time.Sleep(d) // occupy the granted worker slot
				return false  // never finishes: stays backlogged, always contends
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("cluster: %d machines x %d workers, %d tenants (tiers 4:3:2:1 x %d), policy %s, k=%d\n",
		*machines, *workers, 4*n, n, *policy, *k)
	time.Sleep(*duration)

	// Per-machine rollup: with density equalized, every machine's share of
	// the cluster's charged service tracks its share of the cluster weight.
	mtbl := &metrics.Table{Headers: []string{"machine", "tenants", "weight", "share", "jain"}}
	for _, m := range c.MachineStats() {
		mtbl.AddRow(
			fmt.Sprintf("%d", m.Machine),
			fmt.Sprintf("%d", m.Tenants),
			fmt.Sprintf("%g/%g", m.Weight, totalWeight),
			fmt.Sprintf("%.3f", m.Share),
			fmt.Sprintf("%.4f", m.Jain))
	}
	fmt.Print(mtbl.String())

	// Per-tier rollup: charged service summed over each tier must split
	// 4:3:2:1 cluster-wide, machine boundaries notwithstanding.
	byTier := map[string]sfsched.Duration{}
	var total sfsched.Duration
	for _, st := range c.Stats() {
		tier := st.Name
		for i := len(st.Name) - 1; i >= 0; i-- {
			if st.Name[i] == '-' { // strip the -<i> suffix
				tier = st.Name[:i]
				break
			}
		}
		byTier[tier] += st.Service
		total += st.Service
	}
	ttbl := &metrics.Table{Headers: []string{"tier", "weight", "share", "ideal"}}
	for _, tier := range tiers {
		share := 0.0
		if total > 0 {
			share = float64(byTier[tier.name]) / float64(total)
		}
		ttbl.AddRow(tier.name,
			fmt.Sprintf("%g", tier.weight),
			fmt.Sprintf("%.3f", share),
			fmt.Sprintf("%.3f", tier.weight*float64(n)/totalWeight))
	}
	fmt.Print(ttbl.String())
	fmt.Printf("cluster jain %.4f, %d migrations\n", c.JainIndex(), c.Migrations())
}
