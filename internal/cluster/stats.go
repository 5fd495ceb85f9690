package cluster

import (
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// TenantStat is one tenant's statistics with its machine attribution. Share
// and Lag are recomputed cluster-wide (fraction of all charged time across
// every machine; lag against the global weighted entitlement), overriding
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
	Jain    float64          // within-machine weighted Jain index
}

// Stats returns per-tenant statistics across every machine, with Share and
// Lag recomputed cluster-wide. Each machine is frozen for its own snapshot,
// but machines are sampled in sequence: the cut is per-machine consistent,
// not cluster-consistent — charging that lands on machine j while machine i
// is being read skews shares by at most the sampling window.
func (c *Cluster) Stats() []TenantStat {
	var out []TenantStat
	var tot metrics.Totals
	for i, n := range c.nodes {
		for _, st := range n.Stats() {
			out = append(out, TenantStat{TenantStat: st, Machine: i})
			tot.Add(st.Service, st.Weight)
		}
	}
	for i := range out {
		out[i].Share = tot.Share(out[i].Service)
		out[i].Lag = simtime.Duration(tot.Lag(out[i].Service, out[i].Weight) * float64(simtime.Second))
	}
	return out
}

// MachineStats returns the per-machine rollup: load, aggregate charged
// service, cluster share and within-machine Jain index. Service and Jain come
// from one Stats snapshot per machine, the Jain index in the order the
// machine's own JainIndex sums it.
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
		var jain metrics.Jain
		for _, st := range n.Stats() {
			out[i].Service += st.Service
			jain.Add(st.Service, st.Weight)
		}
		out[i].Jain = jain.Index()
		tot.Service += out[i].Service
	}
	for i := range out {
		out[i].Share = tot.Share(out[i].Service)
	}
	return out
}

// JainIndex returns the cluster-wide weighted Jain fairness index over every
// tenant's charged service (1.0 = perfectly proportional), or 1 with no
// tenants — the rollup the acceptance demo prints.
func (c *Cluster) JainIndex() float64 {
	var jain metrics.Jain
	for _, n := range c.nodes {
		for _, st := range n.Stats() {
			jain.Add(st.Service, st.Weight)
		}
	}
	return jain.Index()
}
