package mpi

// peek returns the status of the queued message a receive of (src, tag) in
// ctx would take, without consuming it.
func (mb *mailbox) peek(ctx int64, src int, tag Tag) (Status, bool) {
	if q, ok := mb.ctxs[ctx]; ok {
		if i := q.find(src, tag); i >= 0 {
			return q.unexpected[i].status(), true
		}
	}
	return Status{}, false
}

// Iprobe reports whether a message matching (src, tag) is queued without
// consuming it; when true, the returned status describes the message. A
// failed Iprobe lets every runnable rank run before it returns.
func (c *Comm) Iprobe(src int, tag Tag) (bool, Status) {
	if isNull(src) {
		c.trace(CallIprobe, NoPeer, 0)
		return true, nullStatus()
	}
	c.trace(CallIprobe, c.peerWorldOrAny(src), 0)
	mb := &c.world.boxes[c.group[c.rank]]
	if st, ok := mb.peek(ptpCtx(c.id), c.worldSrcOf(src), tag); ok {
		return true, c.statusToComm(st)
	}
	c.rs.pollLater()
	return false, Status{}
}

// Probe blocks until a message matching (src, tag) is queued and returns
// its status without consuming it; a following Recv with the same
// arguments retrieves the message.
func (c *Comm) Probe(src int, tag Tag) Status {
	if isNull(src) {
		c.trace(CallProbe, NoPeer, 0)
		return nullStatus()
	}
	c.trace(CallProbe, c.peerWorldOrAny(src), 0)
	mb, worldSrc, ctx := &c.world.boxes[c.group[c.rank]], c.worldSrcOf(src), ptpCtx(c.id)
	for {
		// Looked up again after every wake: by then an AnySource probe may
		// have a message with an earlier arrival than the one that woke it.
		if st, ok := mb.peek(ctx, worldSrc, tag); ok {
			return c.statusToComm(st)
		}
		req := c.newRequest(opProbe, worldSrc, tag, ctx)
		mb.prober = req // deliver completes it when a matching envelope is queued
		c.waitFree(req)
	}
}
