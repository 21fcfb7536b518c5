package mlpred

import "sync/atomic"

// CalibBins is the number of equal-width score buckets in [0, 1) of a
// Calibration histogram (scores >= 1 land in the last bucket).
const CalibBins = 20

// Calibration records the raw score distribution of one classifier as it
// answers engine queries: a fixed-bin histogram over [0, 1] plus the
// positive-decision count. The health observatory (internal/health) reads
// it to spot threshold drift — a score mass piling up just under the
// threshold, or a bimodal metric collapsing toward it — without labels.
// Observe is lock-free (one atomic add per call) and only runs when a
// classifier has a Calibration attached, preserving the one-branch
// disabled cost of the predict path.
type Calibration struct {
	// Classifier and Threshold identify the instrument in reports.
	Classifier string
	Threshold  float64

	bins       [CalibBins]atomic.Int64
	outOfRange atomic.Int64
	count      atomic.Int64
	positives  atomic.Int64
}

// NewCalibration creates a calibration histogram for the named classifier
// with its decision threshold.
func NewCalibration(classifier string, threshold float64) *Calibration {
	return &Calibration{Classifier: classifier, Threshold: threshold}
}

// Observe records one raw score and the decision made on it.
func (c *Calibration) Observe(score float64, positive bool) {
	if c == nil {
		return
	}
	switch {
	case score < 0 || score > 1:
		c.outOfRange.Add(1)
	case score >= 1:
		c.bins[CalibBins-1].Add(1)
	default:
		c.bins[int(score*CalibBins)].Add(1)
	}
	c.count.Add(1)
	if positive {
		c.positives.Add(1)
	}
}

// CalibSnapshot is a point-in-time copy of a Calibration, JSON-ready for
// the /debug/health report.
type CalibSnapshot struct {
	Classifier string  `json:"classifier"`
	Threshold  float64 `json:"threshold"`
	// Bins[i] counts scores in [i/CalibBins, (i+1)/CalibBins).
	Bins       []int64 `json:"bins"`
	OutOfRange int64   `json:"out_of_range,omitempty"`
	Count      int64   `json:"count"`
	Positives  int64   `json:"positives"`
}

// Snapshot copies the current counts.
func (c *Calibration) Snapshot() CalibSnapshot {
	s := CalibSnapshot{
		Classifier: c.Classifier,
		Threshold:  c.Threshold,
		Bins:       make([]int64, CalibBins),
		OutOfRange: c.outOfRange.Load(),
		Count:      c.count.Load(),
		Positives:  c.positives.Load(),
	}
	for i := range s.Bins {
		s.Bins[i] = c.bins[i].Load()
	}
	return s
}

// CalibrationOf returns the Calibration attached to cl, nil when there is
// none; while one is, every pair cl is asked about must reach cl itself.
func CalibrationOf(cl Classifier) *Calibration {
	switch c := cl.(type) {
	case *SimClassifier:
		return c.Calib
	case *LogisticClassifier:
		return c.Calib
	}
	return nil
}

// EnableCalibration attaches a Calibration to every registered classifier
// that can score (SimClassifier, LogisticClassifier) and returns them by
// classifier name. Idempotent: already-attached calibrations are kept.
// Call during setup, before engines run — the Calib fields are read
// without synchronization on the predict path.
func (r *Registry) EnableCalibration() map[string]*Calibration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Calibration)
	for name, cl := range r.classifiers {
		switch c := cl.(type) {
		case *SimClassifier:
			if c.Calib == nil {
				c.Calib = NewCalibration(name, c.Threshold)
			}
			out[name] = c.Calib
		case *LogisticClassifier:
			if c.Calib == nil {
				c.Calib = NewCalibration(name, c.threshold())
			}
			out[name] = c.Calib
		}
	}
	return out
}
