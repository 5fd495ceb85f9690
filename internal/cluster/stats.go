package cluster

import (
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// TenantStat is one tenant's statistics with its machine attribution. Share
// and Lag are recomputed cluster-wide (fraction of all charged time across
// every machine; lag behind GMS over every machine's workers), overriding
// the per-machine values the hosting runtime reported.
type TenantStat struct {
	rt.TenantStat
	Machine int
}

// MachineStat summarizes one machine for the cluster rollup.
type MachineStat struct {
	Machine int
	Workers int
	Tenants int
	Weight  float64          // Σ tenant weights on this machine
	Queued  int              // queued tasks on this machine
	Service simtime.Duration // Σ charged service of its current tenants
	Share   float64          // fraction of cluster-wide charged service
}

// Stats returns per-tenant statistics across every machine, with Share and
// Lag recomputed cluster-wide. Each machine is frozen for its own snapshot,
// but machines are sampled in sequence: the cut is per-machine consistent,
// not cluster-consistent — charging that lands on machine j while machine i
// is being read skews shares by at most the sampling window.
func (c *Cluster) Stats() []TenantStat {
	var out []TenantStat
	var tot metrics.Totals
	var lag metrics.GMSLag
	workers := 0
	for i, n := range c.nodes {
		workers += n.Load().Workers
		for _, st := range n.Stats() {
			out = append(out, TenantStat{TenantStat: st, Machine: i})
			tot.Add(st.Service, st.Weight)
			lag.Add(st.Service, st.Weight)
		}
	}
	for i, l := range lag.Lags(workers) {
		out[i].Share = tot.Share(out[i].Service)
		out[i].Lag = simtime.Duration(l * float64(simtime.Second))
	}
	return out
}

// MachineStats returns the per-machine rollup: load, aggregate charged
// service and cluster share. Service comes from one Stats snapshot per
// machine.
func (c *Cluster) MachineStats() []MachineStat {
	out := make([]MachineStat, len(c.nodes))
	var tot metrics.Totals
	for i, n := range c.nodes {
		load := n.Load()
		out[i] = MachineStat{
			Machine: i,
			Workers: load.Workers,
			Tenants: load.Tenants,
			Weight:  load.Weight,
			Queued:  load.Queued,
		}
		for _, st := range n.Stats() {
			out[i].Service += st.Service
		}
		tot.Service += out[i].Service
	}
	for i := range out {
		out[i].Share = tot.Share(out[i].Service)
	}
	return out
}
