package sim

// Test hooks for the recorder in record_test.go (package sim_test): the
// two checkpoint writers, which the differential checks compare.

// framePos is the log position every test frame records.
var framePos = LogPosition{NextSegment: 2, Events: 40}

// ReferenceFrame is the checkpoint frame of s by the reference writer:
// a Snapshot, its platform columns written from the snapshot.
func ReferenceFrame(s *Sim) ([]byte, error) {
	return encodeCheckpoint(new(checkpointBufs), &Checkpoint{State: s.Snapshot(), Log: framePos})
}

// LiveFrame is the checkpoint frame of s as a save writes it, the
// platform's two halves on two goroutines. The frame aliases the sim's
// checkpoint buffers: use it before the next save.
func LiveFrame(s *Sim) ([]byte, error) {
	return s.encodeCheckpoint(framePos)
}
