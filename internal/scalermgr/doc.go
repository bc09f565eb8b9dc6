// Package scalermgr generalises the algorithm layer into a multi-metric
// scaler manager: each service runs several independent scalers (CPU,
// memory, network bandwidth, and queue depth), every scaler aggregates its
// signal over a stable (average) and a burst (max) sliding window, and the
// Manager merges the per-scaler replica recommendations under a pluggable
// merge policy — max-wins by default, demand-weighted as an alternative.
//
// The package ships two algorithm spellings, both resolved through
// runner.NewAlgorithm:
//
//   - "manager": horizontal scaling straight from the merged recommendation,
//     the libkpa Manager/Scaler architecture.
//   - "manager-cost": the merged recommendation feeds a cost-optimal
//     allocator with an inferno-style decision hierarchy — optimizer when
//     metrics are fresh (scale up to burst demand, down to stable demand
//     unless the service declares an SLO), fallback to the last merged
//     recommendation when the metric stream has a gap, last-resort hold
//     otherwise — plus retention-period-aware scale-to-zero, forced binpack
//     placement, and drain-preferring scale-in so emptied machines stop
//     accruing machine-hours in internal/cost.
//
// Managers are deterministic: state is keyed by service, snapshots are
// walked in order, and no wall-clock or shared RNG is consulted, so runs
// remain byte-identical at any -parallel count.
package scalermgr
