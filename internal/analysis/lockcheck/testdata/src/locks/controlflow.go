package locks

// Control-flow shapes: how switch, select, loops, break, continue, labels
// and fallthrough combine must-hold lock states.

// --- clean ---

func (s *Session) switchWithDefault(k int) {
	s.mu.Lock()
	switch k {
	case 0:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
}

func (s *Session) selectEveryClause(a, b chan int) {
	s.mu.Lock()
	select {
	case <-a:
		s.mu.Unlock()
	case <-b:
		s.mu.Unlock()
	}
}

func (s *Session) loopBodyAlwaysReturns(xs []int) int {
	s.mu.Lock()
	for range xs {
		s.mu.Unlock()
		return 0
	}
	s.mu.Unlock()
	return 1
}

func (s *Session) switchEveryArmReturns(k int) int {
	s.mu.Lock()
	switch k {
	case 0:
		s.mu.Unlock()
		return 0
	default:
		s.mu.Unlock()
		return 1
	}
}

// --- diagnostics ---

func (s *Session) breakOutOfLoop(c chan int) {
	s.mu.Lock()
	for {
		if <-c > 0 {
			s.mu.Unlock()
			break
		}
	}
	s.mu.Unlock() // want `not held on every path`
}

// The second pass through the body unlocks again after the first pass's
// continue.
func (s *Session) continueToNextPass(xs []int) {
	s.mu.Lock()
	for _, x := range xs {
		if x > 0 {
			s.mu.Unlock() // want `not held on every path`
			continue
		}
	}
	s.mu.Unlock() // want `not held on every path`
}

func (s *Session) selectOneClauseUnlocks(a, b chan int) {
	s.mu.Lock()
	select {
	case <-a:
		s.mu.Unlock()
	case <-b:
	}
	s.mu.Unlock() // want `not held on every path`
}

func (s *Session) labelledBreakLeaves(rows [][]int) {
	s.mu.Lock()
outer:
	for {
		for range rows {
			s.mu.Unlock()
			break outer
		}
	}
	s.mu.Unlock() // want `not held on every path`
}

func (s *Session) fallthroughCarriesUnlock(k int) {
	s.mu.Lock()
	switch k {
	case 0:
		s.mu.Unlock()
		fallthrough
	case 1:
		s.mu.Unlock() // want `not held on every path`
	default:
		s.mu.Unlock()
	}
}
