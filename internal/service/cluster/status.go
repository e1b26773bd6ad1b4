package cluster

// ClusterStatus is the coordinator's /status snapshot: ring membership
// and generation, in-flight and completed cells, and whether this
// coordinator took over a predecessor's journal. It reports only state
// the coordinator owns; its counters are in the registry that /status
// also serves, and each worker serves its own /metrics and /status at
// the base its row lists.
type ClusterStatus struct {
	RingGeneration int          `json:"ring_generation"`
	WorkersLive    int          `json:"workers_live"`
	InFlightCells  int          `json:"in_flight_cells"`
	CompletedCells int          `json:"completed_cells"`
	TookOver       bool         `json:"took_over"`
	Workers        []WorkerInfo `json:"workers"`
}

// Status builds the cluster status snapshot from coordinator state
// alone; it makes no RPC.
func (c *Coordinator) Status() ClusterStatus {
	c.cmu.Lock()
	completed := len(c.completed)
	c.cmu.Unlock()
	return ClusterStatus{
		RingGeneration: c.RingGeneration(),
		WorkersLive:    c.LiveWorkers(),
		InFlightCells:  c.InFlightCells(),
		CompletedCells: completed,
		TookOver:       c.tookOver,
		Workers:        c.Workers(),
	}
}
