package coach

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/routes"
	"repro/internal/tracegen"
)

var (
	envOnce sync.Once
	envP    *core.Pipeline
	envRecs []*core.TransitionRecord
	envErr  error
)

func testData(t *testing.T) (*core.Pipeline, []*core.TransitionRecord) {
	t.Helper()
	envOnce.Do(func() {
		envP, envErr = core.NewPipeline(core.Config{
			CitySeed: 42,
			Fleet: tracegen.Config{
				Seed: 42, Cars: 2, TripsPerCar: 30, GateRunFraction: 0.4,
			},
		})
		if envErr != nil {
			return
		}
		var res *core.Result
		res, envErr = envP.RunContext(context.Background())
		if envErr == nil {
			envRecs = res.Transitions()
		}
	})
	if envErr != nil {
		t.Fatalf("pipeline: %v", envErr)
	}
	if len(envRecs) == 0 {
		t.Fatal("no transitions to coach")
	}
	return envP, envRecs
}

func TestAnalyzePlausible(t *testing.T) {
	p, recs := testData(t)
	c := New(p.Graph)
	for _, rec := range recs {
		r := c.Analyze(rec)
		if r.EcoScore < 0 || r.EcoScore > 100 {
			t.Fatalf("eco score %f out of range", r.EcoScore)
		}
		if r.FuelPerKm < 50 || r.FuelPerKm > 400 {
			t.Fatalf("fuel per km %f implausible", r.FuelPerKm)
		}
		if r.IdlePct < 0 || r.IdlePct > 100 {
			t.Fatalf("idle share %f out of range", r.IdlePct)
		}
		if r.DetourFactor < 1 || r.DetourFactor > 4 {
			t.Fatalf("detour factor %f implausible", r.DetourFactor)
		}
		if len(r.Suggestions) == 0 {
			t.Fatal("no suggestions produced")
		}
		if r.Direction == "" || r.DistanceKm <= 0 {
			t.Fatalf("report incomplete: %+v", r)
		}
	}
}

// TestCoachSharesPipelineRouter pins one router per road graph: the
// pipeline routes through its graph's router, and a coach built from
// the same graph looks its reference routes up in that path cache.
func TestCoachSharesPipelineRouter(t *testing.T) {
	p, recs := testData(t)
	if p.Router != p.Graph.Router() {
		t.Fatal("Pipeline.Router is not the graph's router")
	}
	c := New(p.Graph)
	for _, rec := range recs {
		if len(rec.Match.Geometry) < 2 {
			continue
		}
		before := p.Router.CacheStats()
		c.Analyze(rec)
		after := p.Router.CacheStats()
		if after.Hits+after.Misses == before.Hits+before.Misses {
			t.Fatalf("Analyze added no lookups to the pipeline router's cache: %+v", after)
		}
		return
	}
	t.Fatal("no transition with a matched geometry")
}

func TestEcoScoreOrdersTrips(t *testing.T) {
	// A clean trip beats an idle-heavy detour.
	good := TripReport{IdlePct: 2, LowSpeedPct: 12, DetourFactor: 1.02}
	bad := TripReport{IdlePct: 30, LowSpeedPct: 55, DetourFactor: 1.4}
	if ecoScore(good) <= ecoScore(bad) {
		t.Fatalf("scores inverted: %f vs %f", ecoScore(good), ecoScore(bad))
	}
	if ecoScore(good) < 80 {
		t.Fatalf("clean trip scored %f", ecoScore(good))
	}
	if ecoScore(bad) > 40 {
		t.Fatalf("bad trip scored %f", ecoScore(bad))
	}
}

func TestSuggestionsTriggerOnPenalties(t *testing.T) {
	r := TripReport{IdlePct: 25, LowSpeedPct: 50, DetourFactor: 1.3}
	sugg := strings.Join(suggestions(r), " | ")
	for _, frag := range []string{"standing", "below 10 km/h", "longer than the shortest"} {
		if !strings.Contains(sugg, frag) {
			t.Fatalf("missing suggestion %q in %q", frag, sugg)
		}
	}
	clean := suggestions(TripReport{IdlePct: 1, LowSpeedPct: 5, DetourFactor: 1})
	if len(clean) != 1 || !strings.Contains(clean[0], "efficient") {
		t.Fatalf("clean trip suggestions = %v", clean)
	}
}

func TestCompareRoutes(t *testing.T) {
	_, recs := testData(t)
	options, err := CompareRoutes(recs, routes.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(options) == 0 {
		t.Fatal("no route options")
	}
	byDir := map[string][]RouteOption{}
	for _, o := range options {
		byDir[o.Direction] = append(byDir[o.Direction], o)
	}
	for dir, opts := range byDir {
		// Exactly one eco-best per direction.
		best := 0
		total := 0
		for _, o := range opts {
			if o.EcoBest {
				best++
			}
			total += o.Trips
			if o.MeanFuelMl <= 0 || o.MeanDistKm <= 0 {
				t.Fatalf("%s variant %d has empty means: %+v", dir, o.Variant, o)
			}
		}
		if best != 1 {
			t.Fatalf("%s has %d eco-best variants", dir, best)
		}
		// Trips partition the direction's transitions.
		n := 0
		for _, rec := range recs {
			if rec.Direction() == dir {
				n++
			}
		}
		if total != n {
			t.Fatalf("%s variants hold %d trips, direction has %d", dir, total, n)
		}
		// Variants ordered by popularity.
		for i := 1; i < len(opts); i++ {
			if opts[i].Trips > opts[i-1].Trips {
				t.Fatalf("%s variants not ordered by popularity", dir)
			}
		}
	}
}

func TestCompareRoutesEmpty(t *testing.T) {
	options, err := CompareRoutes(nil, routes.Config{})
	if err != nil || len(options) != 0 {
		t.Fatalf("empty input: %v %v", options, err)
	}
}
