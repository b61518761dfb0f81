// Package report renders the paper's tables from harness results.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/harness"
)

// Table1 renders speedups over sequential execution time for the BASE and
// CCDP versions (paper Table 1).
func Table1(results []*harness.AppResult) string {
	var b strings.Builder
	b.WriteString("Table 1. Speedups over sequential execution time.\n\n")
	fmt.Fprintf(&b, "%6s", "#PEs")
	for _, ar := range results {
		fmt.Fprintf(&b, " | %8s %8s", ar.Name+":BASE", "CCDP")
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 6+len(results)*21) + "\n")
	if len(results) == 0 {
		return b.String()
	}
	for i := range results[0].Rows {
		fmt.Fprintf(&b, "%6d", results[0].Rows[i].PEs)
		for _, ar := range results {
			r := ar.Rows[i]
			fmt.Fprintf(&b, " | %8.2f %8.2f", r.BaseSpeedup, r.CCDPSpeedup)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 renders the percentage improvement in execution time of the CCDP
// codes over the BASE codes (paper Table 2).
func Table2(results []*harness.AppResult) string {
	var b strings.Builder
	b.WriteString("Table 2. Improvement in execution time of CCDP codes over BASE codes.\n\n")
	fmt.Fprintf(&b, "%6s", "#PEs")
	for _, ar := range results {
		fmt.Fprintf(&b, " | %8s", ar.Name)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 6+len(results)*11) + "\n")
	if len(results) == 0 {
		return b.String()
	}
	for i := range results[0].Rows {
		fmt.Fprintf(&b, "%6d", results[0].Rows[i].PEs)
		for _, ar := range results {
			fmt.Fprintf(&b, " | %7.2f%%", ar.Rows[i].Improvement)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Details renders per-configuration cycle counts and key metrics for one
// application (diagnostics beyond the paper's tables). Fault columns are
// shown when any row saw injected faults or demotions; interconnect columns
// (CCDP run: mean/max hop distance, busiest-link utilization, queueing)
// when any row ran over a modeled topology. A flat sweep's output is
// byte-identical to the pre-noc renderer.
func Details(ar *harness.AppResult) string {
	faulty, netted := false, false
	for _, r := range ar.Rows {
		if r.CCDPStats.FaultsInjected() > 0 || r.CCDPStats.Demotions > 0 ||
			r.BaseStats.FaultsInjected() > 0 {
			faulty = true
		}
		if r.CCDPNet != nil || r.BaseNet != nil {
			netted = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: sequential %d cycles\n", ar.Name, ar.SeqCycles)
	fmt.Fprintf(&b, "%4s %14s %14s %8s %10s %10s %10s %10s",
		"PEs", "BASE cycles", "CCDP cycles", "improv", "hits", "remote", "pf", "vector-w")
	if netted {
		fmt.Fprintf(&b, " %9s %8s %9s %10s", "mean-hops", "max-hops", "link-util", "net-wait")
	}
	if faulty {
		fmt.Fprintf(&b, " %8s %8s %8s %8s", "faults", "demotion", "oracle", "attempts")
	}
	b.WriteString("\n")
	for _, r := range ar.Rows {
		fmt.Fprintf(&b, "%4d %14d %14d %7.2f%% %10d %10d %10d %10d",
			r.PEs, r.BaseCycles, r.CCDPCycles, r.Improvement,
			r.CCDPStats.Hits, r.CCDPStats.RemoteReads,
			r.CCDPStats.PrefetchIssued, r.CCDPStats.VectorWords)
		if netted {
			fmt.Fprintf(&b, " %9.2f %8d %8.1f%% %10d",
				r.CCDPNet.MeanHopsOrZero(), r.CCDPNet.MaxHopsOrZero(),
				100*r.CCDPNet.MaxLinkUtil(), r.CCDPStats.NetWaitCycles)
		}
		if faulty {
			fmt.Fprintf(&b, " %8d %8d %8d %8d",
				r.CCDPStats.FaultsInjected()+r.BaseStats.FaultsInjected(),
				r.CCDPStats.Demotions,
				r.CCDPStats.OracleViolations+r.BaseStats.OracleViolations,
				r.CCDPAttempts)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Arena renders the coherence-arena table: one workload under every
// coherence scheme, with the traffic split into data and coherence
// messages. CCDP's rows must show zero coherence messages (its coherence
// actions are compiler-scheduled prefetches, already part of the data
// traffic); the hardware directory rows show the protocol's message and
// storage costs, distinct per organization.
func Arena(ar *harness.ArenaResult) string {
	netted, pref := false, false
	for _, e := range ar.Entries {
		if e.Net != nil {
			netted = true
		}
		if e.Stats.HWPrefIssued > 0 {
			pref = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Coherence arena: %s on %d PEs (sequential %d cycles)\n",
		ar.Name, ar.PEs, ar.SeqCycles)
	fmt.Fprintf(&b, "%-12s %14s %8s %10s %10s %10s %10s %7s %10s %12s",
		"mode", "cycles", "speedup", "coh-msgs", "inv-sent", "inv-recv",
		"writebacks", "bcasts", "dir-evicts", "dir-bits")
	if netted {
		fmt.Fprintf(&b, " %10s %10s", "net-msgs", "data-msgs")
	}
	if pref {
		fmt.Fprintf(&b, " %10s %10s", "pf-issued", "pf-useful")
	}
	b.WriteString("\n")
	for _, e := range ar.Entries {
		s := &e.Stats
		fmt.Fprintf(&b, "%-12s %14d %8.2f %10d %10d %10d %10d %7d %10d %12d",
			e.Mode, e.Cycles, e.Speedup, s.CohMessages, s.CohInvSent, s.CohInvRecv,
			s.CohWritebacks, s.CohBroadcasts, s.DirEvictions, s.DirStorageBits)
		if netted {
			fmt.Fprintf(&b, " %10d %10d", s.NetMessages, s.NetMessages-s.CohMessages)
		}
		if pref {
			fmt.Fprintf(&b, " %10d %10d", s.HWPrefIssued, s.HWPrefUseful)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ArenaCSV renders arena results in machine-readable form, one row per
// (workload, mode). As in Arena, the net_msgs and data_msgs columns appear
// only when some entry ran over a modeled interconnect: on a flat machine
// there is no network to count, and data_msgs would go negative.
func ArenaCSV(results []*harness.ArenaResult) string {
	netted := false
	for _, ar := range results {
		for _, e := range ar.Entries {
			netted = netted || e.Net != nil
		}
	}
	var b strings.Builder
	b.WriteString("app,pes,mode,seq_cycles,cycles,speedup,coh_msgs,inv_sent,inv_recv," +
		"writebacks,broadcasts,dir_evictions,dir_bits")
	if netted {
		b.WriteString(",net_msgs,data_msgs")
	}
	b.WriteString(",hwpref_issued,hwpref_useful\n")
	for _, ar := range results {
		for _, e := range ar.Entries {
			s := &e.Stats
			fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d",
				ar.Name, ar.PEs, e.Mode, ar.SeqCycles, e.Cycles, e.Speedup,
				s.CohMessages, s.CohInvSent, s.CohInvRecv, s.CohWritebacks,
				s.CohBroadcasts, s.DirEvictions, s.DirStorageBits)
			if netted {
				fmt.Fprintf(&b, ",%d,%d", s.NetMessages, s.NetMessages-s.CohMessages)
			}
			fmt.Fprintf(&b, ",%d,%d\n", s.HWPrefIssued, s.HWPrefUseful)
		}
	}
	return b.String()
}

// CSV renders both tables' data in machine-readable form: one row per
// (application, PE count) with cycles, speedups, improvement, and the
// fault-injection counters (all zero in fault-free runs). When any row ran
// over a modeled interconnect, the CCDP run's net columns (mean/max hop
// distance, busiest-link utilization, queueing, congestion drops) are
// appended; a flat sweep's CSV stays byte-identical to the pre-noc format.
// A sweep on a coherence-domain profile (anything but t3d) further appends
// the CCDP run's prefetch-word, invalidation and domain-traffic columns;
// t3d CSVs never change shape.
func CSV(results []*harness.AppResult) string {
	var b strings.Builder
	WriteCSV(&b, results)
	return b.String()
}

// WriteCSV is CSV writing directly to w — the form the benchmark drivers
// and the sweep service's clients stream through, so a served sweep's CSV
// is rendered by exactly the code path an in-process sweep uses. The
// column shape (net columns, domain columns) depends on the full result
// set, so rows cannot be emitted before every result is in.
func WriteCSV(w io.Writer, results []*harness.AppResult) {
	netted, domained := false, false
	for _, ar := range results {
		if ar.Profile != "" && ar.Profile != "t3d" {
			domained = true
		}
		for _, r := range ar.Rows {
			if r.CCDPNet != nil || r.BaseNet != nil {
				netted = true
			}
		}
	}
	io.WriteString(w, "app,pes,seq_cycles,base_cycles,ccdp_cycles,base_speedup,ccdp_speedup,improvement_pct,"+
		"drops,late,demotions,oracle_violations,attempts")
	if netted {
		io.WriteString(w, ",mean_hops,max_hops,max_link_util,net_wait,net_contended,net_drops")
	}
	if domained {
		io.WriteString(w, ",pf_words,invalidated,domain_near_words,domain_far_words,domain_hw_inv")
	}
	io.WriteString(w, "\n")
	for _, ar := range results {
		for _, r := range ar.Rows {
			s := &r.CCDPStats
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d",
				ar.Name, r.PEs, ar.SeqCycles, r.BaseCycles, r.CCDPCycles,
				r.BaseSpeedup, r.CCDPSpeedup, r.Improvement,
				s.FaultDrops+r.BaseStats.FaultDrops,
				s.FaultLate+r.BaseStats.FaultLate,
				s.Demotions+r.BaseStats.Demotions,
				s.OracleViolations+r.BaseStats.OracleViolations,
				r.CCDPAttempts)
			if netted {
				fmt.Fprintf(w, ",%.4f,%d,%.4f,%d,%d,%d",
					r.CCDPNet.MeanHopsOrZero(), r.CCDPNet.MaxHopsOrZero(),
					r.CCDPNet.MaxLinkUtil(), s.NetWaitCycles, s.NetContended, s.NetDrops)
			}
			if domained {
				fmt.Fprintf(w, ",%d,%d,%d,%d,%d",
					s.PrefetchIssued+s.VectorWords, s.InvalidatedLines,
					s.DomainNearWords, s.DomainFarWords, s.DomainHWInvalidations)
			}
			io.WriteString(w, "\n")
		}
	}
}
