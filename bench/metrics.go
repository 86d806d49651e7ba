package main

import (
	"slices"
)

// driftRatio is the p50 of the last decile of the measured phase over the
// p50 of the first decile, each client's selects taken in issue order.
// About 1 means latency is not growing as the index refines itself.
func driftRatio(rec *recorder) float64 {
	var first, last []int64
	for _, l := range rec.lat[kSelect] {
		n := len(l) / 10
		if n == 0 {
			continue
		}
		first = append(first, l[:n]...)
		last = append(last, l[len(l)-n:]...)
	}
	if len(first) == 0 {
		return 1
	}
	return float64(medianNS(last)) / float64(medianNS(first))
}

// busyShare is the smallest share of the measured phases any client spent
// waiting for the kernel. A closed loop that is bound by its own generator
// shows up here as a share well under 1.
func busyShare(res *passResult) float64 {
	share := 1.0
	for _, ns := range res.rec.busyNS {
		share = min(share, float64(ns)/1e9/res.busyS)
	}
	return share
}

// endToEndMetrics derives one repeat's end-to-end samples: one value per
// metric, a few for the recoveries. On a sliced plan the latency and rate
// metrics are the median over the repeat's slices: latency climbs through a
// phase as pieces shrink, so slices of one repeat are not independent
// samples, and quartiles and n are taken over repeats only.
func endToEndMetrics(p *plan, res *passResult) map[string][]float64 {
	m := map[string][]float64{
		"setup_s": {res.setupS},
		"heap_mb": {res.heapMB},
	}
	var p50, rate []float64
	selects := func(ns []int64, n int, wall float64) {
		p50 = append(p50, usOf(medianNS(ns)))
		rate = append(rate, float64(n)/wall)
	}
	if p.sliced {
		for pi, ph := range p.phases {
			n := 0
			for _, stream := range ph {
				n += len(stream)
			}
			selects(res.rec.phaseSelects(pi), n, res.phaseS[pi])
		}
	} else {
		selects(res.rec.pooled(kSelect), p.statements(), res.busyS)
	}
	m["select_p50_us"] = []float64{median(p50)}
	m["stmt_per_s"] = []float64{median(rate)}
	switch p.workload {
	case wCold:
		cum := int64(0)
		for _, ns := range res.rec.pooled(kSelect) {
			cum += ns
		}
		m["cum_query_s"] = []float64{float64(cum) / 1e9}
		m["idle_total_s"] = []float64{res.idleS}
	case wBursty:
		m["write_p50_us"] = []float64{usOf(medianNS(res.rec.pooled(kInsert)))}
		m["recover_s"] = res.recoverS
	}
	return m
}

// runMetrics adds the per-layer numbers an ordinary (untraced-rung) replay
// yields by itself: counters the layers export and client-side tails.
func runMetrics(p *plan, res *passResult, m map[string]float64) {
	sel := sortedCopy(res.rec.pooled(kSelect))
	m["client.select_p99_us"] = usOf(percentile(sel, 0.99))
	m["client.select_p999_us"] = usOf(percentile(sel, 0.999))
	m["client.p50_drift_ratio"] = driftRatio(res.rec)
	m["client.busy_share"] = busyShare(res)
	m["cracker.pieces_start"], m["cracker.pieces_end"] = float64(res.piecesStart), float64(res.piecesEnd)
	m["cracker.avg_piece_end"] = res.avgPieceEnd
	m["core.boosts"], m["core.contended"] = float64(res.boosts), float64(res.contended)
	if p.workload == wCold {
		m["client.first_query_ms"] = float64(res.rec.lat[kSelect][0][0]) / 1e6
	} else {
		m["server.overloaded"] = float64(res.overloaded)
		m["loadgate.step_grants"], m["loadgate.gaps"] = float64(res.stepGrants), float64(res.gateGaps)
	}
	if res.idleActions > 0 {
		m["core.idle_actions"] = float64(res.idleActions)
		m["core.idle_action_us"] = res.idleS * 1e6 / float64(res.idleActions)
		m["core.idle_work_per_action"] = float64(res.idleWork) / float64(res.idleActions)
	}
	if p.workload != wBursty {
		return
	}
	writes := sortedCopy(append(res.rec.pooled(kInsert), res.rec.pooled(kDelete)...))
	m["client.write_p99_us"] = usOf(percentile(writes, 0.99))
	pending := make([]int64, len(res.pendingAtBurstEnd))
	for i, n := range res.pendingAtBurstEnd {
		pending[i] = int64(n)
	}
	m["shard.pending_at_burst_end"] = float64(medianNS(pending))
	var post []int64
	for _, l := range res.rec.postGap {
		post = append(post, l...)
	}
	if len(post) > 0 {
		m["idle.post_gap_select_us"] = usOf(medianNS(post))
	}
	if res.autoIdle {
		m["idle.gap_actions"], m["idle.busy_actions"] = float64(res.gapActions), float64(res.busyActions)
	}
	if res.checkpointMS > 0 {
		m["snapshot.checkpoint_ms"] = res.checkpointMS
		m["snapshot.bytes_per_row"] = float64(res.snapshotBytes) / float64(res.rowsAtCheckpoint)
		m["wal.bytes_per_row"] = float64(res.walBytes) / float64(max(res.rowsLogged, 1))
		m["snapshot.open_ms"] = res.openMS
		m["snapshot.replayed"] = float64(res.replayed)
	}
}

// summary is one metric over a workload's repeats.
type summary struct {
	Value float64 `json:"value"` // median over repeats
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Samples are the per-repeat values, in run order.
	Samples []float64 `json:"samples"`
}

func summarise(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(values), Samples: values}
}

func unitOf(name string) string {
	if s := findMetric(endToEnd, name); s != nil {
		return s.Unit
	}
	if s := findMetric(perLayer, name); s != nil {
		return s.Unit
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
