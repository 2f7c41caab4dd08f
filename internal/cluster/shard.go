package cluster

import (
	"strings"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// This file holds the client's per-class market sharding: queries are
// grouped into classes (the paper's Q_k, recovered from SQL shape by
// classKey), and the call-for-proposals fan-out for a class is trimmed
// to the members whose gossiped relation filters can actually hold the
// query's relations — the simulator's FeasibleNodes index lifted into
// the live federation. Everything here errs toward inclusion: a query
// whose relations cannot be extracted, or a member without a filter,
// falls back to the full fan-out, so sharding can only remove RPCs that
// were provably wasted.

// classKey normalizes a query to its class: numeric literals are
// collapsed to '#' so "SELECT v FROM t03 WHERE v > 17" and "... v > 42"
// share a class, while digits inside identifiers (t03, v12) survive —
// they name the relations that define the class.
func classKey(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	for i := 0; i < len(sql); {
		c := sql[i]
		if c >= '0' && c <= '9' && (i == 0 || !isIdentByte(sql[i-1])) {
			j := i
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			b.WriteByte('#')
			i = j
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

// isIdentByte reports whether c can appear inside an identifier. Every
// byte of a multi-byte UTF-8 sequence counts: the lexer reads non-ASCII
// letters as identifier letters, so the digits in "té2" name a relation
// and stay.
func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c >= 0x80
}

// probeSet returns the members the CFP for sql should fan out to. With
// shard probing on, members whose gossiped relation filter provably
// lacks one of the query's relations are skipped (the filter has no
// false negatives, so exclusion is always safe); members without a
// filter — old nodes, or static views that never refreshed — are always
// probed. When every member would be excluded the full view is returned
// instead: an all-excluded round smells like a parsing artifact, and
// the market's own refusals are the authority on infeasibility.
func (c *Client) probeSet(sql string) []*nodeState {
	members := c.nodes()
	if c.cfg.NoShardProbe || len(members) < 2 {
		return members
	}
	rels := sqldb.Relations(sql)
	if len(rels) == 0 {
		return members
	}
	idx, _ := mayHoldAll(members, rels)
	if len(idx) == 0 || len(idx) == len(members) {
		return members
	}
	out := make([]*nodeState, len(idx))
	for k, i := range idx {
		out[k] = members[i]
	}
	c.health.Add(metrics.ShardSkipsTotal, int64(len(members)-len(idx)))
	return out
}

// noneHoldsAll reports whether the gossiped filters prove that no member
// holds every relation in rels: each member advertises a filter and no
// filter passes. It is the Distributor's reason to skip the whole-query
// round — a round whose parsed relations come from the statement
// itself, so unlike probeSet there is no parsing artifact to fall back
// on. With shard probing off, or a member without a filter, the market
// is asked. The skipped round's fan-out counts as shard skips.
func (c *Client) noneHoldsAll(rels []string) bool {
	members := c.nodes()
	if c.cfg.NoShardProbe || len(members) == 0 || len(rels) == 0 {
		return false
	}
	if idx, filtered := mayHoldAll(members, rels); !filtered || len(idx) > 0 {
		return false
	}
	c.health.Add(metrics.ShardSkipsTotal, int64(len(members)))
	return true
}

// mayHoldAll is the one walk over the members' gossiped filters: idx
// lists the members that may hold every relation in rels (a member
// without a filter always may), and filtered reports whether every
// member had a filter to test.
func mayHoldAll(members []*nodeState, rels []string) (idx []int, filtered bool) {
	filtered = true
	idx = alloc.ScanFeasible(len(members), func(i int) bool {
		ns := members[i]
		ns.mu.Lock()
		f := ns.filter
		ns.mu.Unlock()
		if f == nil {
			filtered = false
			return true
		}
		return f.HoldsAll(rels)
	})
	return idx, filtered
}
