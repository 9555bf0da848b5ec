//go:build !race

// Package race reports whether the race detector is built in. Allocation
// budgets skip themselves when it is: its instrumentation allocates on its
// own, so a count taken under it measures the detector, not the code. The
// same tests run without it hold every budget.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
