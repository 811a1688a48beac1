//go:build race

package cluster

// The race detector's sync.Pool drops a share of what is put back, so what
// reuses pooled encoders allocates more, and by chance, under it.
func init() { raceBuild = true }
