package sim

// Test hooks for the recorder in record_test.go (package sim_test): the
// two checkpoint writers and the maintained fraud counter, which the
// differential checks compare against their references.

// framePos is the log position every test frame records.
var framePos = LogPosition{NextSegment: 2, Events: 40}

// ReferenceFrame is the checkpoint frame of s by the reference writer:
// a Snapshot, its platform columns written from the snapshot.
func ReferenceFrame(s *Sim) ([]byte, error) {
	return encodeCheckpoint(new(checkpointBufs), &Checkpoint{State: s.Snapshot(), Log: framePos})
}

// LiveFrame is the checkpoint frame of s as a save writes it, the
// platform's two halves in sequence at one worker and on two goroutines
// above one. The frame aliases the sim's checkpoint buffers: use it
// before the next save.
func LiveFrame(s *Sim, workers int) ([]byte, error) {
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
