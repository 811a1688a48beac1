package main

import (
	"sort"
	"time"

	"loadbalance/internal/message"
)

// spanStats is what the spans of a traced run's assembled sessions say.
type spanStats struct {
	sessions int

	caTableSelf time.Duration // Customer Agent handlers of reward tables: decode, decide, reply
	caTableN    int
	caOtherSelf time.Duration // Customer Agent handlers of awards and session ends
	caOtherN    int
	uaSelf      time.Duration
	uaN         int
	uaBids      int
	busSelf     time.Duration
	busN        int

	handleBidUs    []float64
	dispatchWaitUs []float64
	sendUs         []float64
	broadcastUs    []float64

	relayUs     []float64
	aggregateUs []float64
	skews       []float64
	clusterSelf time.Duration // inferred from the concentrators' sends; a lower bound
	clusterN    int
}

// shardRound gathers one shard's sends in one round of one session.
type shardRound struct {
	fanFirst, fanLast int64 // concentrator's fan-out of the table on the shard bus
	fanBusy           int64
	fanN              int
	lastMemberBid     int64 // end of the last member bid sent on the shard bus
	upStart, upEnd    int64 // the concentrator's aggregated bid on the parent bus
}

type roundKey struct {
	session, round int
}

type shardKey struct {
	roundKey
	shard string
}

// analyzeSpans folds the spans into per-layer self times and latencies.
// Self time is a span's duration minus the time its synchronous children
// (sends made while the handler ran) cover.
func analyzeSpans(spans []span) spanStats {
	var st spanStats
	byID := make(map[uint64]*span, len(spans))
	childTime := make(map[uint64]time.Duration)
	sessions := make(map[int]bool)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		sessions[s.Session] = true
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	st.sessions = len(sessions)

	announce := make(map[roundKey]int64)
	shards := make(map[shardKey]*shardRound)
	ccShard := make(map[string]string) // concentrator name -> its shard bus label
	shardOf := func(k shardKey) *shardRound {
		sr, ok := shards[k]
		if !ok {
			sr = &shardRound{}
			shards[k] = sr
		}
		return sr
	}
	type upward struct {
		key        roundKey
		cc         string
		start, end int64
	}
	var ups []upward

	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerBus:
			st.busSelf += s.dur()
			st.busN++
			if s.Name == "broadcast" {
				st.broadcastUs = append(st.broadcastUs, micros(s.dur()))
			} else {
				st.sendUs = append(st.sendUs, micros(s.dur()))
			}
			rk := roundKey{s.Session, s.Round}
			switch {
			case s.Bus == "parent" && s.Kind == string(message.KindRewardTable):
				announce[rk] = s.StartNs
			case s.Bus == "parent" && s.Kind == string(message.KindCutDownBid):
				ups = append(ups, upward{rk, s.Agent, s.StartNs, s.EndNs})
			case s.Bus != "parent" && s.Bus != "flat" && s.Kind == string(message.KindRewardTable):
				ccShard[s.Agent] = s.Bus
				sr := shardOf(shardKey{rk, s.Bus})
				if sr.fanN == 0 || s.StartNs < sr.fanFirst {
					sr.fanFirst = s.StartNs
				}
				if s.EndNs > sr.fanLast {
					sr.fanLast = s.EndNs
				}
				sr.fanBusy += int64(s.dur())
				sr.fanN++
			case s.Bus != "parent" && s.Bus != "flat" && s.Kind == string(message.KindCutDownBid):
				sr := shardOf(shardKey{rk, s.Bus})
				if s.EndNs > sr.lastMemberBid {
					sr.lastMemberBid = s.EndNs
				}
			}
		case layerCA:
			self := s.dur() - childTime[s.ID]
			if s.Kind == string(message.KindRewardTable) {
				st.caTableSelf += self
				st.caTableN++
			} else {
				st.caOtherSelf += self
				st.caOtherN++
			}
		case layerUA:
			st.uaSelf += s.dur() - childTime[s.ID]
			st.uaN++
			if s.Kind == string(message.KindCutDownBid) {
				st.uaBids++
				st.handleBidUs = append(st.handleBidUs, micros(s.dur()))
			}
		}
		if s.Cause != 0 {
			if cause, ok := byID[s.Cause]; ok {
				st.dispatchWaitUs = append(st.dispatchWaitUs, micros(time.Duration(s.StartNs-cause.StartNs)))
			}
		}
	}

	for _, u := range ups {
		if label, ok := ccShard[u.cc]; ok {
			sr := shardOf(shardKey{u.key, label})
			sr.upStart, sr.upEnd = u.start, u.end
		}
	}
	perRound := make(map[roundKey][]float64)
	keys := make([]shardKey, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.session != b.session {
			return a.session < b.session
		}
		if a.round != b.round {
			return a.round < b.round
		}
		return a.shard < b.shard
	})
	for _, k := range keys {
		sr := shards[k]
		start, ok := announce[k.roundKey]
		if !ok || sr.fanN == 0 || sr.upEnd == 0 {
			continue
		}
		st.relayUs = append(st.relayUs, micros(time.Duration(sr.fanFirst-start)))
		aggregate := time.Duration(sr.upStart - sr.lastMemberBid)
		st.aggregateUs = append(st.aggregateUs, micros(aggregate))
		st.clusterSelf += time.Duration(sr.fanLast-sr.fanFirst-sr.fanBusy) + aggregate
		st.clusterN++
		perRound[k.roundKey] = append(perRound[k.roundKey], float64(sr.upEnd-start))
	}
	rounds := make([]roundKey, 0, len(perRound))
	for rk := range perRound {
		rounds = append(rounds, rk)
	}
	sort.Slice(rounds, func(i, j int) bool {
		if rounds[i].session != rounds[j].session {
			return rounds[i].session < rounds[j].session
		}
		return rounds[i].round < rounds[j].round
	})
	for _, rk := range rounds {
		times := perRound[rk]
		if med := median(times); med > 0 {
			st.skews = append(st.skews, quantile(times, 1)/med)
		}
	}
	return st
}

// sessionTable turns span self times into the layer table of a session
// workload. A Customer Agent's handler cannot be split from outside, so its
// self time on reward tables is apportioned to message / kb / desire /
// customeragent by the probe ratios; the Utility Agent's likewise to
// message / protocol / utilityagent.
func sessionTable(st spanStats, p *probeResult, rootFanIn int) *layerTable {
	t := &layerTable{}
	react := median(p.reactUs)
	frac := func(us float64) float64 {
		if react <= 0 {
			return 0
		}
		return us / react
	}
	infer, activate := median(p.inferUs), median(p.activateUs)
	fKB := frac(infer)
	fDesire := frac(activate - infer)
	fMsg := frac(median(p.decodeTableNs) / 1e3)
	if fKB+fDesire+fMsg > 1 {
		scale := 1 / (fKB + fDesire + fMsg)
		fKB, fDesire, fMsg = fKB*scale, fDesire*scale, fMsg*scale
	}
	part := func(total time.Duration, f float64) time.Duration { return time.Duration(float64(total) * f) }

	caMsg := part(st.caTableSelf, fMsg)
	t.add(layerCA, st.caTableN+st.caOtherN, st.caTableSelf-part(st.caTableSelf, fKB)-part(st.caTableSelf, fDesire)-caMsg+st.caOtherSelf, true)
	t.add(layerDesire, st.caTableN, part(st.caTableSelf, fDesire), true)
	t.add(layerKB, st.caTableN, part(st.caTableSelf, fKB), true)

	// One Utility Agent round costs a close-round at the root's fan-in; the
	// probe is taken at 1000 and 16, scaled linearly in between.
	var closeRound time.Duration
	if rootFanIn <= 16 {
		closeRound = time.Duration(median(p.closeRoundUs[16]) * float64(rootFanIn) / 16 * 1e3)
	} else {
		closeRound = time.Duration(median(p.closeRoundUs[1000]) * float64(rootFanIn) / 1000 * 1e3)
	}
	roundsTotal := 0
	if rootFanIn > 0 {
		roundsTotal = st.uaBids / rootFanIn
	}
	protocolSelf := min(time.Duration(roundsTotal)*closeRound, st.uaSelf)
	uaMsg := min(time.Duration(float64(st.uaBids)*median(p.decodeBidNs)), st.uaSelf-protocolSelf)
	t.add(layerUA, st.uaN, st.uaSelf-protocolSelf-uaMsg, true)
	t.add(layerProtocol, roundsTotal, protocolSelf, true)
	t.add(layerMessage, st.caTableN+st.uaBids, caMsg+uaMsg, true)
	t.add(layerBus, st.busN, st.busSelf, false)
	if st.clusterN > 0 {
		t.add(layerCluster, st.clusterN, st.clusterSelf, false)
	}
	return t
}
