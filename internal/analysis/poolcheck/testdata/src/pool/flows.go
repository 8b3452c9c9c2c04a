package pool

// --- diagnostics ---

func leak(p *Pool) int {
	m := p.Get() // want `pooled value m may leak`
	return m.ID
}

func leakOnOnePath(p *Pool, cond bool) {
	m := p.Get() // want `pooled value m may leak`
	if cond {
		p.Put(m)
	}
}

func discarded(p *Pool) {
	p.Get() // want `result of Get is pool-owned but discarded`
}

func doubleRelease(p *Pool) {
	m := p.Get()
	p.Put(m)
	p.Put(m) // want `double release of m`
}

func conditionalDoubleRelease(p *Pool, cond bool) {
	m := p.Get()
	if cond {
		p.Put(m)
	}
	p.Put(m) // want `double release of m`
}

func useAfterRelease(p *Pool) int {
	m := p.Get()
	p.Put(m)
	return m.ID // want `use of m after release`
}

func releaseAfterTransfer(p *Pool) {
	m := p.Get()
	p.Send(m)
	p.Put(m) // want `release of m after its ownership was transferred`
}

func varDeclaredLeak(p *Pool) int {
	var m = p.Get() // want `pooled value m may leak`
	return m.ID
}

// --- sanctioned flows: no diagnostics ---

func acquireRelease(p *Pool) {
	m := p.Get()
	m.ID = 7
	p.Put(m)
}

func acquireTransferPerIteration(p *Pool, n int) {
	for i := 0; i < n; i++ {
		m := p.Get()
		m.ID = i
		p.Send(m)
	}
}

func storeEscapes(p *Pool, head *Msg) {
	m := p.Get()
	head.Next = m // chained into a structure the caller owns
}

func returnEscapes(p *Pool) *Msg {
	m := p.Get()
	return m // ownership passes to the caller
}

func branchesCovered(p *Pool, cond bool) {
	m := p.Get()
	if cond {
		p.Send(m)
		return
	}
	p.Put(m)
}

func bareReturnEscapes(p *Pool) (m *Msg) {
	m = p.Get()
	return // the named result passes to the caller
}

func varDeclaredRelease(p *Pool) {
	var m *Msg = p.Get()
	m.ID = 7
	p.Put(m)
}

func readAfterTransfer(p *Pool) int {
	m := p.Get()
	p.Send(m)
	return m.ID // shared with the scheduler until delivery: reads are fine
}

func aliasMovesOwnership(p *Pool) {
	m := p.Get()
	alias := m
	p.Put(alias)
}

func panicIsCold(p *Pool) {
	m := p.Get()
	if m.ID < 0 {
		panic("corrupt pool entry")
	}
	p.Put(m)
}

func closureTakesOwnership(p *Pool) func() {
	m := p.Get()
	return func() { p.Put(m) }
}
