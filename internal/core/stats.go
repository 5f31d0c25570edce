package core

import "fmt"

// Stats aggregates the framework's observable counters: control-message
// traffic between hosts and DPUs, RDMA operations issued by proxies, and
// the hit rates of every cache the paper introduces. They quantify exactly
// the effects the evaluation section argues about (e.g. Figure 15's
// control-message reduction).
type Stats struct {
	CtrlMsgs   int64 // control messages handled by proxies
	RDMAWrites int64 // data writes posted by proxies
	RDMAReads  int64 // staging reads posted by proxies
	StagedOps  int64 // transfers that bounced through DPU memory

	GroupHits   int64 // group-request cache hits (replays)
	GroupMisses int64 // full Group_Offload_packet installs

	HostGVMICacheHits   int64 // host-side GVMI registration cache
	HostGVMICacheMisses int64
	HostIBCacheHits     int64 // host-side IB registration cache
	HostIBCacheMisses   int64
	CrossCacheHits      int64 // DPU-side cross-registration cache
	CrossCacheMisses    int64

	// Reliability counters (nonzero only under fault injection with crashes).
	Failovers          int64 // hosts that switched to host-progressed fallback
	FallbackGroupCalls int64 // group calls executed by hosts
	FallbackWrites     int64 // RDMA writes posted by fallback hosts
	FoEagerSends       int64 // basic sends pushed eagerly host-to-host
	OneSidedReissues   int64 // one-sided transfers re-posted by initiators
	DlvDeduped         int64 // duplicate delivery notifications suppressed
}

// Stats collects counters across all hosts and proxies.
func (fw *Framework) Stats() Stats {
	var s Stats
	for _, px := range fw.proxies {
		s.CtrlMsgs += px.CtrlMsgs
		s.RDMAWrites += px.RDMAWrites
		s.RDMAReads += px.RDMAReads
		s.StagedOps += px.StagedOps
		s.GroupHits += px.GroupHits
		s.GroupMisses += px.GroupMiss
		s.CrossCacheHits += px.crossCache.Hits
		s.CrossCacheMisses += px.crossCache.Misses
	}
	for _, h := range fw.hosts {
		s.HostGVMICacheHits += h.gvmiCache.Hits
		s.HostGVMICacheMisses += h.gvmiCache.Misses
		s.HostIBCacheHits += h.ibCache.Hits
		s.HostIBCacheMisses += h.ibCache.Misses
		s.Failovers += h.Failovers
		s.FallbackGroupCalls += h.FallbackCalls
		s.FallbackWrites += h.FallbackWrites
		s.FoEagerSends += h.FoSends
		s.OneSidedReissues += h.OsReissues
		s.DlvDeduped += h.DlvDup
	}
	return s
}

// String renders a compact human-readable report.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"ctrl=%d writes=%d reads=%d staged=%d group(hit/miss)=%d/%d gvmi$(h/m)=%d/%d ib$(h/m)=%d/%d cross$(h/m)=%d/%d",
		s.CtrlMsgs, s.RDMAWrites, s.RDMAReads, s.StagedOps,
		s.GroupHits, s.GroupMisses,
		s.HostGVMICacheHits, s.HostGVMICacheMisses,
		s.HostIBCacheHits, s.HostIBCacheMisses,
		s.CrossCacheHits, s.CrossCacheMisses)
	if s.Failovers|s.FallbackGroupCalls|s.FallbackWrites|s.FoEagerSends|s.OneSidedReissues|s.DlvDeduped != 0 {
		out += fmt.Sprintf(
			" failovers=%d fbcalls=%d fbwrites=%d fosends=%d 1s-reissues=%d dlv-dedup=%d",
			s.Failovers, s.FallbackGroupCalls, s.FallbackWrites,
			s.FoEagerSends, s.OneSidedReissues, s.DlvDeduped)
	}
	return out
}
