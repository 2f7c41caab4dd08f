package cluster

import (
	"errors"
	"sort"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/membership"
)

// MemberInfo is one row of the client's membership view, for operator
// tools (qactl -members) and tests.
type MemberInfo struct {
	// ID is the member's stable node identity (the seed address until
	// the node's first reply resolves it).
	ID string
	// Addr is the member's dial address.
	Addr string
	// State is the last gossiped membership state ("seed" before the
	// first view refresh).
	State string
	// Incarnation and Epoch mirror the gossiped member row.
	Incarnation uint64
	Epoch       uint64
	// CatalogDigest is the member's advertised placement digest.
	CatalogDigest string
	// CatalogFilter is the member's advertised relation filter, hex
	// encoded ("" when the member predates filters or hosts nothing).
	CatalogFilter string
	// Breaker is the client-side circuit state for the member
	// (closed, open, half-open).
	Breaker string
}

// Members snapshots the client's current view, sorted by node ID.
func (c *Client) Members() []MemberInfo {
	nodes := c.nodes()
	out := make([]MemberInfo, 0, len(nodes))
	for _, ns := range nodes {
		ns.mu.Lock()
		info := MemberInfo{
			ID:            ns.id,
			Addr:          ns.addr,
			State:         ns.state,
			Incarnation:   ns.incarnation,
			Epoch:         ns.epoch,
			CatalogDigest: ns.catalog,
			CatalogFilter: ns.filterEnc,
		}
		ns.mu.Unlock()
		info.Breaker = ns.breaker.snapshot().String()
		out = append(out, info)
	}
	return out
}

// RefreshView fetches a live node's merged membership table and folds
// it into the client's view: new live members are added (with fresh
// breakers, pools, and histograms keyed by their stable ID), members
// gossiped as left or dead are pruned. The background refresher calls
// this every ViewRefresh; tools can call it once for an on-demand
// view. The first reachable node wins — its table is already the
// merged federation view. The configured addresses are asked first, in
// the order they were configured, then every other member by ID: an
// unresolved seed's ID is its address, and sorting "mem:10000" before
// "mem:9950" would ask whichever seed sorts first, however partial its
// table.
func (c *Client) RefreshView() error {
	var lastErr error
	for _, ns := range c.refreshOrder() {
		var rep reply
		if err := c.rpcOn(ns, &request{Op: "members"}, &rep, c.cfg.Timeout, nil, nil); err != nil {
			lastErr = err
			continue
		}
		if rep.Members == nil {
			if rep.Err != "" {
				lastErr = errors.New(rep.Err)
			} else {
				lastErr = errors.New("cluster: malformed members reply")
			}
			continue
		}
		c.applyMembers(rep.Members)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: membership view is empty")
	}
	return lastErr
}

// refreshOrder lists the view in the order RefreshView asks it.
func (c *Client) refreshOrder() []*nodeState {
	nodes := c.nodes()
	first := make(map[string]int, len(c.cfg.Addrs))
	for i, addr := range c.cfg.Addrs {
		if _, dup := first[addr]; !dup {
			first[addr] = i
		}
	}
	rank := make(map[*nodeState]int, len(nodes))
	for _, ns := range nodes {
		ns.mu.Lock()
		r, configured := first[ns.addr]
		ns.mu.Unlock()
		if !configured {
			r = len(c.cfg.Addrs)
		}
		rank[ns] = r
	}
	sort.SliceStable(nodes, func(i, j int) bool { return rank[nodes[i]] < rank[nodes[j]] })
	return nodes
}

// refreshLoop polls the membership view until Close: at once, then —
// while a configured address is still an unresolved seed entry, that
// is, while the node that answered has not yet heard of a member the
// client was told about — again after 1 ms, 2 ms, 4 ms, … capped at
// ViewRefresh, and from then on every ViewRefresh. A client started
// next to its federation therefore has its first full view when the
// join gossip lands, not one refresh period (or, when the gossip misses
// that tick, two) later; a poll at start alone would be too early.
func (c *Client) refreshLoop() {
	defer c.refreshWG.Done()
	for delay := time.Millisecond; ; delay = min(2*delay, c.cfg.ViewRefresh) {
		// Errors are transient by construction (every node was
		// unreachable this time); the next poll retries.
		_ = c.RefreshView()
		if !c.hasUnresolvedSeed() {
			break
		}
		t := c.cfg.clock.newTimer(delay)
		select {
		case <-t.C():
		case <-c.stopRefresh:
			t.Stop()
			return
		}
	}
	t := c.cfg.clock.newTicker(c.cfg.ViewRefresh)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			_ = c.RefreshView()
		case <-c.stopRefresh:
			return
		}
	}
}

// hasUnresolvedSeed reports whether the view still holds an entry known
// only by its configured address.
func (c *Client) hasUnresolvedSeed() bool {
	for _, ns := range c.nodes() {
		ns.mu.Lock()
		resolved := ns.resolved
		ns.mu.Unlock()
		if !resolved {
			return true
		}
	}
	return false
}

// applyMembers folds one node's merged table into the client view.
func (c *Client) applyMembers(mr *membersReply) {
	members := fromWireMembers(mr.Members)
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	// Index resolved IDs and provisional (seed-address) entries so a
	// gossiped row can claim the entry created for its address.
	byAddr := make(map[string]*nodeState, len(c.view))
	for _, ns := range c.view {
		ns.mu.Lock()
		if !ns.resolved {
			byAddr[ns.addr] = ns
		}
		ns.mu.Unlock()
	}
	for _, m := range members {
		if m.ID == "" {
			continue
		}
		if !m.State.Live() {
			// Left or dead: prune, and remember the incarnation so a
			// slower peer's stale "alive" row cannot resurrect it.
			c.pruneLocked(m.ID, m.Incarnation)
			if ns, ok := byAddr[m.Addr]; ok {
				c.pruneLocked(ns.id, m.Incarnation)
			}
			continue
		}
		ns, ok := c.view[m.ID]
		if !ok {
			if prov, hit := byAddr[m.Addr]; hit {
				// The seed-address entry is this member; resolve it.
				ns, ok = prov, true
				ns.mu.Lock()
				old := ns.id
				ns.id, ns.resolved = m.ID, true
				ns.mu.Unlock()
				if c.view[old] == ns {
					delete(c.view, old)
				}
				c.view[m.ID] = ns
			}
		}
		if !ok {
			if inc, removed := c.removedInc[m.ID]; removed && m.Incarnation <= inc {
				continue // stale resurrection of a pruned member
			}
			delete(c.removedInc, m.ID)
			ns = c.newNodeState(m.ID, m.Addr, true)
			c.view[m.ID] = ns
		}
		c.updateMember(ns, m)
	}
	if len(c.view) == 0 {
		// The whole federation gossiped itself away. Fall back to the
		// configured seeds so a later (re)start is rediscovered.
		for _, addr := range c.cfg.Addrs {
			if _, dup := c.view[addr]; dup {
				continue
			}
			c.view[addr] = c.newNodeState(addr, addr, false)
		}
	}
}

// updateMember refreshes one entry's gossiped fields, rebuilding the
// pooled transport when the member moved to a new address.
func (c *Client) updateMember(ns *nodeState, m membership.Member) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.addr != m.Addr && m.Addr != "" {
		c.retireLocked(ns.transport)
		ns.addr = m.Addr
		ns.transport = c.newTransport(m.Addr)
	}
	ns.state = m.State.String()
	ns.incarnation = m.Incarnation
	ns.epoch = m.Epoch
	ns.catalog = m.CatalogDigest
	if m.CatalogFilter != ns.filterEnc {
		ns.filterEnc = m.CatalogFilter
		// A malformed advertisement decodes to nil: the member is probed
		// for everything rather than wrongly excluded.
		ns.filter = catalog.DecodeRelationFilter(m.CatalogFilter)
	}
}
