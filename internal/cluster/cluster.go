package cluster

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/workload"
)

// Cluster is the set of worker machines the Monitor arbitrates over.
type Cluster struct {
	nodes []*Node
	byID  map[string]*Node
	// pool issues Container.Slot to every node this cluster creates, so
	// slots are dense and unique across its live containers, and versions
	// occupancy. Adopted nodes keep the pool of the cluster that created
	// them, and a view shares it (see AdoptNode).
	pool *pool

	// occupied caches the nodes hosting at least one container, in node
	// order, as of pool generation occGen.
	occupied []*Node
	occGen   uint64

	// tickBuf is Advance's reusable merge buffer; the returned TickResult
	// aliases it and is valid until the next Advance. scratch is the
	// working set every node's physics shares.
	tickBuf TickResult
	scratch scratch
}

// New builds a cluster from node configs, preserving order.
func New(cfgs ...NodeConfig) (*Cluster, error) {
	c := &Cluster{byID: make(map[string]*Node, len(cfgs)), pool: newPool()}
	for _, cfg := range cfgs {
		if err := c.AddNode(cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NewHomogeneous builds n identical nodes named node-0 … node-(n-1) using
// the supplied template config (its ID field is overwritten).
func NewHomogeneous(n int, template NodeConfig) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	cfgs := make([]NodeConfig, n)
	for i := range cfgs {
		cfgs[i] = template
		cfgs[i].ID = fmt.Sprintf("node-%d", i)
	}
	return New(cfgs...)
}

// AddNode registers a new machine, supporting the paper's future-work item
// of dynamic machine addition.
func (c *Cluster) AddNode(cfg NodeConfig) error {
	if _, dup := c.byID[cfg.ID]; dup {
		return fmt.Errorf("cluster: duplicate node ID %q", cfg.ID)
	}
	n, err := NewNode(cfg)
	if err != nil {
		return err
	}
	n.pool = c.pool
	c.nodes = append(c.nodes, n)
	c.byID[cfg.ID] = n
	c.pool.gen++
	return nil
}

// RemoveNode decommissions a machine, killing every container on it. It
// returns the requests that died with the node, or an error for unknown IDs.
func (c *Cluster) RemoveNode(id string) ([]*workload.Request, error) {
	n, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", id)
	}
	var killed []*workload.Request
	for _, cc := range append([]*container.Container(nil), n.Containers()...) {
		killed = append(killed, n.RemoveContainer(cc.ID)...)
	}
	c.drop(id)
	return killed, nil
}

// AdoptNode registers an existing node object without creating a new
// machine. Zone views use it to share *Node pointers with the physical
// cluster: the zone's control plane sees exactly the machines it owns while
// the global cluster keeps ticking all of them. An empty cluster takes the
// pool of the first node it adopts, so its occupancy cache follows the
// placements made on those nodes; every later node must share that pool.
func (c *Cluster) AdoptNode(n *Node) error {
	if _, dup := c.byID[n.ID()]; dup {
		return fmt.Errorf("cluster: duplicate node ID %q", n.ID())
	}
	if n.pool != c.pool {
		if len(c.nodes) > 0 {
			return fmt.Errorf("cluster: node %q belongs to another cluster's pool", n.ID())
		}
		c.pool, c.occGen = n.pool, 0
	}
	c.nodes = append(c.nodes, n)
	c.byID[n.ID()] = n
	c.pool.gen++
	return nil
}

// ReleaseNode removes a node from this cluster's membership WITHOUT killing
// its containers, returning the node object (or nil for unknown IDs). The
// counterpart of AdoptNode: moving a machine between zone views must not
// disturb the workloads running on it.
func (c *Cluster) ReleaseNode(id string) *Node {
	n, ok := c.byID[id]
	if !ok {
		return nil
	}
	c.drop(id)
	return n
}

// drop removes a known node from the membership.
func (c *Cluster) drop(id string) {
	delete(c.byID, id)
	for i, nn := range c.nodes {
		if nn.ID() == id {
			c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
			break
		}
	}
	c.pool.gen++
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id string) *Node { return c.byID[id] }

// Nodes returns all nodes in deterministic order. Callers must not mutate
// the slice.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Occupied returns the nodes hosting at least one container, in node
// order: the only machines with physics to run or usage to sample. The
// list is rebuilt only after the pool generation moved. Callers must not
// mutate the slice, and must not hold it across a placement, a removal or a
// membership change.
func (c *Cluster) Occupied() []*Node {
	if c.occGen != c.pool.gen {
		c.occupied = c.occupied[:0]
		for _, n := range c.nodes {
			if len(n.containers) > 0 {
				c.occupied = append(c.occupied, n)
			}
		}
		c.occGen = c.pool.gen
	}
	return c.occupied
}

// Generation returns the occupancy generation Occupied is cached against.
// It moves whenever a node this cluster shares its pool with goes
// empty↔occupied or a sharing cluster's membership changes, so a caller can
// cache its own per-occupied-node state against it.
func (c *Cluster) Generation() uint64 { return c.pool.gen }

// FindContainer locates a container anywhere in the cluster.
func (c *Cluster) FindContainer(id string) (*container.Container, *Node) {
	for _, n := range c.nodes {
		if cc := n.Container(id); cc != nil {
			return cc, n
		}
	}
	return nil, nil
}

// ReplicasOf returns every non-removed replica of the service across the
// cluster, in deterministic node/container order.
func (c *Cluster) ReplicasOf(service string) []*container.Container {
	var out []*container.Container
	for _, n := range c.nodes {
		for _, cc := range n.Containers() {
			if cc.Service == service && cc.State != container.StateRemoved {
				out = append(out, cc)
			}
		}
	}
	return out
}

// Advance runs one physics tick on every occupied node and merges the
// results in node order; an empty node has nothing to advance. The
// returned TickResult's slices are scratch reused by the next Advance;
// consume them before ticking again.
func (c *Cluster) Advance(now time.Duration, dt time.Duration) TickResult {
	res := TickResult{Completed: c.tickBuf.Completed[:0], TimedOut: c.tickBuf.TimedOut[:0]}
	for _, n := range c.Occupied() {
		n.advance(&res, now, dt, &c.scratch)
	}
	c.tickBuf = res
	return res
}
