// Package cluster is the "real implementation" of the paper's Section
// 5.2: a federation of server nodes, each wrapping the embedded
// vectorized engine (internal/engine) and a private QA-NT market agent,
// talking to clients over TCP. Clients negotiate each query with every node (call-for-proposals,
// exactly like the paper's implementation, which "waited for a reply
// from all nodes before deciding"), then send it to the best offer.
//
// Execution-time estimation follows the paper's two-stage scheme: the
// node first plans the query (EXPLAIN) and then overrides the plan-cost
// estimate with past execution times of queries with the same plan
// signature.
package cluster

import (
	"errors"
	"fmt"

	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/trace"
)

// Mechanism selects the allocation protocol a client runs.
type Mechanism string

// Supported allocation mechanisms for the real cluster.
const (
	MechGreedy Mechanism = "greedy"
	MechQANT   Mechanism = "qa-nt"
)

// check refuses a name other than the two: a node runs anything but
// qa-nt as greedy, so a misspelt name would sell outside its market.
func (m Mechanism) check() error {
	if m != MechGreedy && m != MechQANT {
		return fmt.Errorf("cluster: unknown mechanism %q (want %q or %q)", m, MechGreedy, MechQANT)
	}
	return nil
}

// protocolVersion is the one version of the RPC protocol this build
// speaks: every frame's header carries it (frame.go), and a node refuses
// a frame of any other version. Version 2 added the fetch header's
// sequence number and the request's release list; version 3 framed
// every message; version 4 made the hello every connection's first
// message and named the node's incarnation in its answer; version 5
// wrote a batch column of one value kind without per-row kind bytes,
// its ints as deltas from their minimum and its text lengths in the
// fewest bytes that hold them; version 6 sends a float column whose
// values are integers once multiplied by a power of two 2^k as k and
// those integers' deltas from their minimum, like ints; version 7 sends
// negotiate, execute and fetch as binary request frames (reqframe.go).
const protocolVersion = 7

// hello opens every connection: what stays constant for the peer's
// whole run. The node keeps it as the connection's session, and
// negotiate, execute and fetch take the run id (at-most-once dedup) and
// the mechanism from it. A node gossiping says hello under its own
// NodeID.
type hello struct {
	RunID     string    `json:"run_id"`
	Mechanism Mechanism `json:"mechanism"`
}

// helloReply accepts a hello and says who answered it: the node's
// stable ID, which a client learns for each seed address when it first
// connects, and this incarnation's boot nonce, random at StartNode and
// never checkpointed, so a restarted node answers with another one.
type helloReply struct {
	NodeID string `json:"node_id"`
	Boot   uint64 `json:"boot"`
}

// request is one RPC from client to server. A work op — negotiate,
// execute or fetch — travels as a request frame (reqframe.go) carrying
// the fields below that have no JSON name; every other op travels as a
// message frame of JSON. Either header carries the request id the reply
// echoes.
type request struct {
	Op      string `json:"op"` // "hello", "negotiate", "execute", "fetch", "stats", ...
	QueryID int64  `json:"query_id,omitempty"`
	// Hello is the payload of the "hello" op, a connection's first message.
	Hello *hello `json:"hello,omitempty"`
	// Gossip carries the sender's membership table on a "gossip" op
	// (anti-entropy push-pull; the reply carries the receiver's table
	// back).
	Gossip *gossipPayload `json:"gossip,omitempty"`

	// SQL is the query a work op negotiates, executes or fetches.
	SQL string `json:"-"`
	// Trace carries the client's trace context when the query is being
	// traced; untraced requests omit it.
	Trace *traceCtx `json:"-"`
	// DeadlineMs is the query's remaining time budget in milliseconds
	// when the request left the client. It is relative, not a wall-clock
	// instant, so federations need no clock sync; the cost is that time
	// on the wire is not charged. Zero means "no deadline".
	DeadlineMs int64 `json:"-"`
	// Batch carries the additional queries of a batched
	// call-for-proposals on a "negotiate" op: the request's own
	// SQL/QueryID/DeadlineMs fields describe the first query exactly as
	// an unbatched negotiate would, and Batch holds the rest of the
	// coalesced window. The reply answers them positionally. A node-wide
	// refusal (draining, overload at the admission gate) carries no Batch
	// and answers every query of the window.
	Batch []batchQuery `json:"-"`
	// Release names fetch outcomes this client now holds whole, by the
	// sequence numbers their header frames carried. It rides the next
	// negotiate, execute or fetch to that node; the node drops the
	// results and keeps the keys, under the session's run, once the
	// request is answered.
	Release []uint64 `json:"-"`
}

// batchQuery is one additional query of a batched call-for-proposals.
type batchQuery struct {
	QueryID int64
	SQL     string
	// DeadlineMs is the query's own remaining budget (the batch's
	// queries may carry different deadlines).
	DeadlineMs int64
}

// batchProposal answers one batchQuery: the proposal, or the typed
// refusal code the envelope would have carried for an unbatched
// negotiate of that query.
type batchProposal struct {
	QueryID   int64           `json:"query_id,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	Err       string          `json:"error,omitempty"`
	Code      string          `json:"code,omitempty"`
}

// traceCtx links a server's spans into the client's query trace: the
// trace ID names the traced query, Span is the client-side span that
// server spans hang under in the assembled tree.
type traceCtx struct {
	ID   int64
	Span string
}

// spansReply answers the "spans" op with the node's retained spans for
// one trace (request.QueryID; zero returns everything in the ring).
// qactl -trace fans this out to assemble the cross-node span tree.
type spansReply struct {
	Origin string       `json:"origin"`
	Spans  []trace.Span `json:"spans"`
}

// wireMember is one membership-table row on the wire.
type wireMember struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"inc"`
	Heartbeat   uint64 `json:"hb"`
	State       string `json:"state"`
	// Catalog is the compact catalog digest: a hash over the sorted
	// relation names the node hosts, so peers detect placement changes
	// without shipping schemas.
	Catalog string `json:"catalog,omitempty"`
	// CatalogFilter is the hex-encoded relation-name Bloom filter
	// behind the digest (catalog.RelationFilter): clients use it to
	// skip CFP fan-out to nodes provably infeasible for a query's
	// relations. Additive like Catalog — old rows omit it and stay
	// fully probed.
	CatalogFilter string `json:"cf,omitempty"`
	// Epoch is the member's market age in pricer periods.
	Epoch uint64 `json:"epoch,omitempty"`
}

// gossipPayload rides both directions of a push-pull gossip exchange.
// The connection's hello already names the sender.
type gossipPayload struct {
	Members []wireMember `json:"members"`
}

// membersReply answers the "members" op with the node's merged view,
// for clients refreshing their live view and for qactl -members.
type membersReply struct {
	Members []wireMember `json:"members"`
}

// toWireMembers converts a registry snapshot for the wire.
func toWireMembers(ms []membership.Member) []wireMember {
	out := make([]wireMember, len(ms))
	for i, m := range ms {
		out[i] = wireMember{
			ID:            m.ID,
			Addr:          m.Addr,
			Incarnation:   m.Incarnation,
			Heartbeat:     m.Heartbeat,
			State:         m.State.String(),
			Catalog:       m.CatalogDigest,
			CatalogFilter: m.CatalogFilter,
			Epoch:         m.Epoch,
		}
	}
	return out
}

// fromWireMembers parses wire rows back into registry members.
func fromWireMembers(ws []wireMember) []membership.Member {
	out := make([]membership.Member, len(ws))
	for i, w := range ws {
		out[i] = membership.Member{
			ID:            w.ID,
			Addr:          w.Addr,
			Incarnation:   w.Incarnation,
			Heartbeat:     w.Heartbeat,
			State:         membership.ParseState(w.State),
			CatalogDigest: w.Catalog,
			CatalogFilter: w.CatalogFilter,
			Epoch:         w.Epoch,
		}
	}
	return out
}

// negotiateReply answers a call-for-proposals.
type negotiateReply struct {
	Feasible   bool    `json:"feasible"`        // node holds the data
	Offer      bool    `json:"offer"`           // node offers to evaluate (QA-NT supply)
	EstimateMs float64 `json:"estimate_ms"`     // predicted execution time
	QueueMs    float64 `json:"queue_ms"`        // predicted wait before execution
	Signature  string  `json:"signature"`       // plan signature (query class)
	FromCache  bool    `json:"from_history"`    // estimate came from past executions
	Err        string  `json:"error,omitempty"` // parse/plan failure
}

// executeReply answers an execute, and a fetch whose result does not
// stream: refused, failed, or beaten to the last unit of supply. An
// accepted fetch answers with frames instead (frame.go).
type executeReply struct {
	Accepted bool    `json:"accepted"` // false when QA-NT supply ran out meanwhile
	Rows     int     `json:"rows"`
	ExecMs   float64 `json:"exec_ms"`
	WaitMs   float64 `json:"wait_ms"`
	Err      string  `json:"error,omitempty"`
}

// NodeStats reports a node's market state for observability.
type NodeStats struct {
	Executed int `json:"executed"`
	// Health carries the node's failure-domain counters and gauges
	// (drains, drain rejects, checkpoints, checkpoint age — see the
	// metrics package constants).
	Health map[string]float64 `json:"health,omitempty"`
	// Market is the node's per-period market telemetry snapshot —
	// per-class prices/supply and lifetime trading counters, epoch
	// stamped. The autoscaler's control signal rides here (the stats op
	// stays answerable while draining, so a departing member keeps
	// reporting until it is gone).
	Market MarketTelemetry `json:"market"`
}

// Typed reply codes. Codes classify envelope-level errors so clients
// can react mechanically (the breaker trips on a draining node) instead
// of parsing error strings.
const (
	// CodeDraining marks a node that is gracefully shutting down: it
	// finishes in-flight work but refuses new requests. Clients must
	// open the node's circuit immediately rather than burning timeouts.
	CodeDraining = "draining"
	// CodeOverload marks a work request shed at admission: the node's
	// inflight gate or executor queue is full. A market refusal, not
	// unreachability — the node answered promptly — so clients must NOT
	// trip the breaker; they resubmit elsewhere or next period.
	CodeOverload = "overload"
	// CodeExpired marks a query shed because its remaining deadline
	// budget cannot cover the node's backlog estimate (or the deadline
	// passed while the job sat queued). Also a market refusal: the node
	// is healthy, the query just can't make it here in time.
	CodeExpired = "expired"
	// CodeTooLarge marks a request refused for exceeding the wire
	// size limit. The answering node is healthy and said so in a
	// well-formed reply, so clients must NOT trip the breaker — but a
	// retry of the same message cannot succeed either, so the error is
	// terminal, not a resubmit.
	CodeTooLarge = "too_large"
	// CodeReleased refuses a duplicate execute or fetch whose outcome
	// the client already released: the node kept its key, not its
	// result, so the query cannot be replayed and must not run again. A
	// client that keeps the release rule never sees it; one that does is
	// told so by a healthy node, and retrying cannot help.
	CodeReleased = "released"
	// CodeProtocol refuses a frame of a protocol version this node does
	// not speak, a hello with no run id or with an unknown mechanism, a
	// first frame that is not a hello, or a work op in a message frame
	// instead of a request frame; the node then closes the connection.
	// Such a peer cannot serve the client at all, so retrying cannot
	// help.
	CodeProtocol = "protocol"
)

// msgNodeStopping is reported inside an execute/fetch reply when a hard
// shutdown interrupts a queued query. The query was not run; clients
// may safely resubmit it elsewhere.
const msgNodeStopping = "node shutting down"

// msgOverloaded, msgExpired and msgReleased are the human-readable
// halves of the typed overload, expired and released refusals.
const (
	msgOverloaded = "node overloaded"
	msgExpired    = "deadline cannot be met"
	msgReleased   = "outcome already released by this client"
)

// msgHelloRefused and msgWorkInJSON are the human-readable halves of
// the typed protocol refusal: of a connection's first frame, and of a
// work op in a message frame.
var (
	msgHelloRefused = fmt.Sprintf("hello refused: a connection opens with a hello of protocol version %d", protocolVersion)
	msgWorkInJSON   = fmt.Sprintf("request refused: negotiate, execute and fetch travel as request frames of protocol version %d", protocolVersion)
)

// reply is the union envelope sent back by the server, in a message
// frame under the request's id.
type reply struct {
	Hello     *helloReply     `json:"hello,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	// Batch answers the request's Batch queries positionally.
	Batch   []batchProposal `json:"batch,omitempty"`
	Execute *executeReply   `json:"execute,omitempty"`
	Stats   *NodeStats      `json:"stats,omitempty"`
	Gossip  *gossipPayload  `json:"gossip,omitempty"`
	Members *membersReply   `json:"members,omitempty"`
	Spans   *spansReply     `json:"spans,omitempty"`
	Err     string          `json:"error,omitempty"`
	Code    string          `json:"code,omitempty"`

	// stream, when set by the fetch handler, tells serveConn to answer
	// with a binary frame stream instead of marshalling this envelope.
	// Unexported — never rides the JSON.
	stream *frameStream
}

// ErrTooLarge reports a request over the wire size limit: refused by
// writeMsg's pre-write check, or by a node's request bound. It is
// terminal for the message but says nothing bad about the peer, so the
// circuit breaker must not trip on it (see readReply for replies).
var ErrTooLarge = errors.New("cluster: message exceeds wire size limit")

// errHelloRefused reports a node that refused the client's hello with
// the typed protocol code, or answered it in frames of another protocol
// version: it speaks another version, so it cannot serve this client at
// all. The node closes the connection without reading further, so
// nothing sent after the hello has run.
var errHelloRefused = errors.New("cluster: node refused the hello")

// helloOf reads the node's answer to a hello: who answered it.
func helloOf(rep *reply) (helloReply, error) {
	switch {
	case rep.Code == CodeProtocol:
		return helloReply{}, fmt.Errorf("%w: %s", errHelloRefused, rep.Err)
	case rep.Hello == nil:
		return helloReply{}, fmt.Errorf("cluster: malformed hello reply: %s", rep.Err)
	}
	return *rep.Hello, nil
}
