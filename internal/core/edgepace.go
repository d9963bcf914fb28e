package core

import (
	"math"

	"repro/internal/roadnet"
)

// EdgePace is one observed traversal pace over a single road edge,
// extracted from a matched transition: the time the car actually spent
// per kilometre of that edge, bucketed by time of day. Paces (rather
// than absolute edge seconds) make partial traversals usable — a run of
// points covering half an edge still measures the same quantity — and
// keep the consumer free of any dependency on edge lengths.
type EdgePace struct {
	Edge roadnet.EdgeID
	// Hour is the UTC time-of-day bucket (0-23) of the run's first point.
	Hour int
	// SecPerKm is the observed pace in seconds per kilometre.
	SecPerKm float64
}

// minPaceRunM is the minimum along-edge distance a run of matched
// points must cover before it yields a pace observation; anything
// shorter is dominated by GPS projection noise rather than movement.
const minPaceRunM = 5.0

// TransitionEdgePaces extracts the per-edge pace observations of one
// matched transition. The matcher's point assignments are walked in
// order; every maximal run of consecutive non-skipped points sharing an
// edge whose endpoints are separated by at least minPaceRunM along the
// edge geometry and by positive event time yields one observation. The
// result is deterministic for a given record, so every ingest mode
// (batch, streamed, cluster worker) emits identical observations for
// identical transitions.
func TransitionEdgePaces(rec *TransitionRecord) []EdgePace {
	if rec.Match == nil {
		return nil
	}
	span := rec.Transition.Span()
	mp := rec.Match.Points
	n := len(span)
	if len(mp) < n {
		n = len(mp)
	}
	var out []EdgePace
	for i := 0; i < n; {
		if mp[i].Skipped {
			i++
			continue
		}
		j := i
		for j+1 < n && !mp[j+1].Skipped && mp[j+1].Edge == mp[i].Edge {
			j++
		}
		if j > i {
			dt := span[j].Time.Sub(span[i].Time).Seconds()
			dm := math.Abs(mp[j].Proj.Along - mp[i].Proj.Along)
			if dt > 0 && dm >= minPaceRunM {
				out = append(out, EdgePace{
					Edge:     mp[i].Edge,
					Hour:     span[i].Time.UTC().Hour(),
					SecPerKm: dt / dm * 1000,
				})
			}
		}
		i = j + 1
	}
	return out
}
