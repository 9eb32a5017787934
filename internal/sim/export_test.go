package sim

// Test hooks for the recorder in record_test.go (package sim_test): the
// two checkpoint writers and the maintained fraud counter, which the
// differential checks compare against their references.

// framePos is the log position every test frame records.
var framePos = LogPosition{NextSegment: 2, Events: 40}

// ReferenceFrame is the checkpoint frame of s by the reference writer:
// a Snapshot, its platform columns written from the snapshot. Workers,
// the one config field allowed to differ between runs, is zeroed.
func ReferenceFrame(s *Sim) ([]byte, error) {
	st := s.Snapshot()
	st.Config.Workers = 0
	return encodeCheckpoint(new(checkpointBufs), &Checkpoint{State: st, Log: framePos})
}

// LiveFrame is the checkpoint frame of s as a save writes it, the
// platform's two halves in sequence at one worker and on two goroutines
// above one, with Workers zeroed as in ReferenceFrame. The frame aliases
// the sim's checkpoint buffers: use it before the next save.
func LiveFrame(s *Sim, workers int) ([]byte, error) {
	defer func(n int) { s.cfg.Workers = n }(s.cfg.Workers)
	s.cfg.Workers = 0
	return s.encodeCheckpoint(framePos, workers)
}

// FraudLive returns the maintained count of live fraud accounts and the
// O(live) scan it replaced: live-list agents whose account is fraudulent
// and still active.
func FraudLive(s *Sim) (counter, scan int) {
	for _, a := range s.live {
		if acct := s.p.MustAccount(a.Account); acct.Fraud && acct.Alive() {
			scan++
		}
	}
	return s.fraudLive, scan
}
