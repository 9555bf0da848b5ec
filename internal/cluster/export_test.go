package cluster

// BaselineServers lists a baseline deployment's metadata servers in boot
// order, for tests that inspect their journal and namespace.
func BaselineServers(sys System) []BaselineServer { return sys.(*BaselineSystem).Servers }
