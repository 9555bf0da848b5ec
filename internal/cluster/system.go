package cluster

import (
	"mams/internal/fsclient"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/transport"
)

// System abstracts the six metadata services so the experiments can drive
// any of them with the same workload, fault-injection and MTTR machinery.
type System interface {
	// Name is the label used in tables ("MAMS-1A3S", "BackupNode", ...).
	Name() string
	// GroupIDs lists the metadata-server processes clients may contact,
	// by replica group.
	GroupIDs() [][]transport.NodeID
	// Partitioner maps paths to groups (single group for the baselines).
	Partitioner() *partition.Partitioner
	// AwaitReady runs the world until the system serves requests.
	AwaitReady(deadline sim.Time) bool
	// CrashPrimary kills the serving metadata server of group 0.
	CrashPrimary()
	// PrimaryUp reports whether some server of group 0 is serving.
	PrimaryUp() bool
	// NewClient attaches a workload client.
	NewClient(onResult func(fsclient.Result)) *fsclient.Client
}

// newSystemClient builds a client against any System's topology.
func newSystemClient(env *Env, seq *int, sys System, onResult func(fsclient.Result)) *fsclient.Client {
	*seq++
	return fsclient.New(env.Net, fsclient.Config{
		ID:          NodeID("client", sys.Name(), *seq),
		Groups:      sys.GroupIDs(),
		Partitioner: sys.Partitioner(),
		OnResult:    onResult,
	})
}
