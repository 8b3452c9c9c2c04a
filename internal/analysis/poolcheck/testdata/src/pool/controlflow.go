package pool

// Control-flow shapes: how switch, select, loops, break, continue, labels
// and fallthrough combine ownership states.

// --- sanctioned flows: no diagnostics ---

func switchWithDefault(p *Pool, k int) {
	m := p.Get()
	switch k {
	case 0:
		p.Put(m)
	default:
		p.Send(m)
	}
}

func selectEveryClause(p *Pool, a, b chan int) {
	m := p.Get()
	select {
	case <-a:
		p.Put(m)
	case <-b:
		p.Send(m)
	}
}

func loopBodyAlwaysReturns(p *Pool, xs []int) int {
	m := p.Get()
	for range xs {
		p.Put(m)
		return 0
	}
	n := m.ID
	p.Put(m)
	return n
}

func switchEveryArmReturns(p *Pool, k int) int {
	m := p.Get()
	switch k {
	case 0:
		p.Put(m)
		return 0
	default:
		p.Send(m)
		return 1
	}
}

func breakIsTheOnlyExit(p *Pool, c chan int) {
	m := p.Get()
	for {
		if <-c > 0 {
			p.Put(m)
			break
		}
	}
}

func continueSkipsToNextPass(p *Pool, xs []int) {
	for _, x := range xs {
		m := p.Get()
		if x < 0 {
			p.Put(m)
			continue
		}
		p.Send(m)
	}
}

// A value stored in a variable that outlives the function has escaped,
// whether the function returns by a return statement or its closing brace.
var spare *Msg

func fillPackageVar(p *Pool) {
	spare = p.Get()
}

func closureFillsCaptured(p *Pool) {
	var m *Msg
	fill := func() { m = p.Get() }
	fill()
	p.Put(m)
}

// --- diagnostics ---

// A parameter is the function's own variable: reaching the closing brace
// with it owned leaks, as a return statement would.
func refillParam(p *Pool, m *Msg) {
	m = p.Get() // want `pooled value m may leak`
	m.ID = 1
}

func switchWithoutDefault(p *Pool, k int) {
	m := p.Get() // want `pooled value m may leak`
	switch k {
	case 0:
		p.Put(m)
	case 1:
		m.ID = 1
	}
}

func labelledBreakLeaves(p *Pool, rows [][]int) {
	m := p.Get() // want `pooled value m may leak`
outer:
	for {
		for range rows {
			break outer
		}
		p.Put(m)
		return
	}
}

func continueLeaks(p *Pool, xs []int) {
	for _, x := range xs {
		m := p.Get() // want `pooled value m may leak`
		if x < 0 {
			continue
		}
		p.Send(m)
	}
}

func fallthroughCarriesRelease(p *Pool, k int) {
	m := p.Get()
	switch k {
	case 0:
		p.Put(m)
		fallthrough
	case 1:
		p.Put(m) // want `double release of m`
	default:
		p.Put(m)
	}
}
