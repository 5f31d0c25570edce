package core

import (
	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Control-message payloads exchanged between hosts and proxies. Their Size
// fields on the wire are the constants ctrlSize / groupOpWireSize.

// rtsMsg is the Ready-To-Send a source host sends to its proxy
// (Send_Offload, Figure 7): source buffer metadata for the chosen mechanism.
type rtsMsg struct {
	Src, Dst, Tag int
	Size          int
	SrcReqID      int64
	// Path selects the datapath the proxy executes this transfer on. The
	// field rides inside ctrlSize, so wire cost is unchanged.
	Path datapath.Kind
	// CrossGVMI path: the host-registered mkey for cross-registration.
	MKey gvmi.MKeyInfo
	// Source address; for the staged path also the plain IB rkey so the
	// proxy can RDMA-read the source into DPU memory.
	SrcAddr mem.Addr
	SrcRKey verbs.Key

	// Span is the sender's root span, carried across the host->proxy hop so
	// the proxy's transfer work is recorded as its child (0 = untraced).
	Span span.ID
}

// rtrMsg is the Ready-To-Receive a destination host sends to the *sender's*
// proxy (Recv_Offload): destination buffer address and rkey.
type rtrMsg struct {
	Src, Dst, Tag int
	Size          int
	DstReqID      int64
	DstAddr       mem.Addr
	RKey          verbs.Key

	// Span is the receiver's root span (see rtsMsg.Span).
	Span span.ID
}

// finMsg completes one basic-primitive request on a host.
type finMsg struct {
	ReqID int64
}

// gmetaMsg is the receive-entry metadata a receiving host pushes to the
// source host during the Group_Offload_call gather phase (Figure 9): the
// sender needs the destination address/rkey to hand to its proxy, and the
// receiver's group id so delivery notifications can be attributed exactly.
type gmetaMsg struct {
	DstRank  int
	Tag      int
	Size     int
	DstAddr  mem.Addr
	RKey     verbs.Key
	DstGroup int
}

// OpType classifies group-primitive entries.
type OpType uint8

// Group operation types.
const (
	OpSend OpType = iota
	OpRecv
	OpBarrier
)

// wireOp is one Group_op entry as shipped in a Group_Offload_packet. It
// holds only what its executor reads — a send entry all of it, a receive
// entry Type and Peer, a barrier entry Type — so it is 48 bytes, within
// the groupOpWireSize the model charges. The tag was matched at gather
// time and the request's datapath is the packet's; the source's MKeyInfo
// is rebuilt from SrcAddr, Size, SrcKey and Gvmi (postGroupSend).
type wireOp struct {
	SrcAddr mem.Addr // send: the source buffer
	DstAddr mem.Addr // send: the matched receive buffer
	Size    int
	Peer    int32 // send: destination rank; receive: source rank

	// Send entries.
	DstGroup int32     // the receiver's group request
	SrcKey   verbs.Key // the source's host mkey (cross-GVMI) or IB rkey (staged)
	Gvmi     gvmi.ID   // the GVMI-ID SrcKey was registered against (cross-GVMI)
	DstRKey  verbs.Key

	Type OpType
}

// groupPacket is the Group_Offload_packet: the entire recorded pattern,
// sent as one contiguous message from host to proxy.
type groupPacket struct {
	HostRank int
	GroupID  int
	CallSeq  int
	Gen      int           // the proxy generation the host posted under (see installGroup)
	Path     datapath.Kind // the datapath the proxy executes the send entries on
	Entries  []wireOp

	// Span is the host-side root span of this call; the proxy's execution
	// span for CallSeq parents to it (0 = untraced).
	Span span.ID
}

// greplayMsg replays a cached group request (Section VII-D): on a host-side
// cache hit only the request ID travels to the DPU.
type greplayMsg struct {
	HostRank int
	GroupID  int
	CallSeq  int

	// Span is the host-side root span of this call (see groupPacket.Span).
	Span span.ID
}

// dlvMsg is the delivery notification that implements the barrier/
// receive-progress counters of Section VII-C: after a proxy completes an
// RDMA write on behalf of srcHost, it bumps a counter attributed to the
// destination host's group request. (The paper uses pre-registered RDMA
// counter writes; a small control packet has the same wire cost in our
// model.) The counters are the destination host's (Host.barriers); the
// notification travels to its proxy, or under a crash plan into the host's
// own memory, so it survives a proxy failure. Call/Entry identify it, so a
// fallback retransmission is counted exactly once (recvBarrier.count).
type dlvMsg struct {
	SrcHost  int
	DstHost  int
	DstGroup int
	Call     int // group call number this delivery belongs to
	Entry    int // send-entry index within the call
}

// gfailMsg tells a host that its proxy cannot serve a replayed group
// request (the proxy restarted after a crash and lost its group cache); the
// host fails over to host-progressed execution.
type gfailMsg struct {
	GroupID int
	CallSeq int
}

// foSendMsg is the host-progressed fallback for a basic-primitive send: the
// source host, having declared its proxy dead, pushes the payload eagerly
// to the destination host.
type foSendMsg struct {
	Src, Dst, Tag int
	Size          int
	ReqID         int64 // sender's request, completed by the foAckMsg
	Data          []byte

	// Span is the sender's root span, kept across the failover re-execution
	// so the eager push and its ack stay attributed to the original op.
	Span span.ID
}

// foAckMsg completes a fallback send on the source host.
type foAckMsg struct {
	ReqID int64
}

// gdoneMsg is the completion-counter update written back to the host when
// an entire group call has finished on the proxy.
type gdoneMsg struct {
	GroupID int
	CallSeq int
}
