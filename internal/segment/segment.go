// Package segment splits day-long engine-on taxi trips into customer
// trip segments using the paper's time-based segmentation rules
// (Table 2), then filters segments too short or too long to analyse.
//
// Taxi drivers can drive almost the whole day without turning the
// engine off, so a raw "trip" (engine-on period) spans many customer
// runs separated by stand waits. The five rules detect those stops:
//
//  1. no movement between route points for >= 3 minutes;
//  2. less than 3 km moved across a gap of more than 7 minutes;
//  3. implied speed below 0.002 m/s between consecutive points;
//  4. less than 3 km in more than 15 minutes at speed above 0.002 m/s;
//  5. after the first round, segments longer than 40 km are re-split
//     with rule 1 at a 1.5-minute interval.
//
// Finally, segments with fewer than five route points or longer than
// 30 km are removed.
//
// The stage has one kernel, SplitColumns, which segments an
// arena-backed trace.ColTrip view into zero-copy subviews. Its
// row-oriented reference implementation, Split, lives in the package's
// tests (oracle_test.go): every kernel test runs both and requires the
// same segments and Stats.
package segment

import "time"

// Rules holds the Table 2 thresholds. DefaultRules reproduces the
// paper's values; tests and ablations may vary them.
type Rules struct {
	// Rule 1: a gap with less than MoveEpsilonM movement lasting at
	// least StillGap is a stop.
	StillGap     time.Duration
	MoveEpsilonM float64

	// Rule 2: a gap longer than SlowGap with less than SlowDistM moved
	// is a stop.
	SlowGap   time.Duration
	SlowDistM float64

	// Rule 3: implied speed below CrawlSpeedMS (m/s) is a stop.
	CrawlSpeedMS float64

	// Rule 4: a gap longer than LongGap with less than SlowDistM moved
	// (at speed above CrawlSpeedMS) is a stop.
	LongGap time.Duration

	// Rule 5: segments longer than ResplitLengthM after the first round
	// are re-split with rule 1 at ResplitGap.
	ResplitLengthM float64
	ResplitGap     time.Duration

	// Post-filters.
	MinPoints  int
	MaxLengthM float64
}

// DefaultRules returns the paper's Table 2 thresholds.
func DefaultRules() Rules {
	return Rules{
		StillGap:       3 * time.Minute,
		MoveEpsilonM:   25, // "does not change", allowing GPS noise
		SlowGap:        7 * time.Minute,
		SlowDistM:      3000,
		CrawlSpeedMS:   0.002,
		LongGap:        15 * time.Minute,
		ResplitLengthM: 40_000,
		ResplitGap:     90 * time.Second,
		MinPoints:      5,
		MaxLengthM:     30_000,
	}
}

// Stats summarises one segmentation run.
type Stats struct {
	InputTrips        int
	RawSegments       int // segments found before post-filtering
	Resplit           int // segments re-split by rule 5
	TooFewPoints      int // dropped: fewer than MinPoints
	TooLong           int // dropped: longer than MaxLengthM
	KeptSegments      int
	StopGapsByRule    [5]int // which rule fired, for diagnostics
	DroppedStopPoints int    // heartbeat points inside detected stops
	TotalKeptLength   float64
}
