package scalermgr

import "math"

// Opinion is one scaler's replica recommendation entering the merge.
type Opinion struct {
	// Metric names the scaler that produced the opinion.
	Metric string
	// Desired is the scaler's recommended replica count (pre-clamp).
	Desired int
	// Weight is the scaler's configured vote weight.
	Weight float64
}

// MergeFunc combines per-scaler opinions into one replica count. Called
// only with a non-empty opinion list.
type MergeFunc func(ops []Opinion) int

var mergeRegistry = map[string]MergeFunc{
	"max":      mergeMax,
	"weighted": mergeWeighted,
}

// mergePolicy resolves a policy by name.
func mergePolicy(name string) (MergeFunc, bool) {
	fn, ok := mergeRegistry[name]
	return fn, ok
}

// mergeMax is the libkpa default: the largest recommendation wins, so every
// signal can force capacity up but none can force it down alone.
func mergeMax(ops []Opinion) int {
	m := ops[0].Desired
	for _, o := range ops[1:] {
		if o.Desired > m {
			m = o.Desired
		}
	}
	return m
}

// mergeWeighted takes the weight-averaged recommendation, rounded up so a
// fractional need still provisions a whole replica.
func mergeWeighted(ops []Opinion) int {
	var sum, wsum float64
	for _, o := range ops {
		w := o.Weight
		if w <= 0 {
			w = 1
		}
		sum += w * float64(o.Desired)
		wsum += w
	}
	if wsum == 0 {
		return mergeMax(ops)
	}
	return int(math.Ceil(sum / wsum))
}
