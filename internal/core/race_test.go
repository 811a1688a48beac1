//go:build race

package core

// The race detector's instrumentation allocates, and its sync.Pool drops a
// share of what is put back: allocation budgets read the figures measured
// under it.
func init() { raceBuild = true }
