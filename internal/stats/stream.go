package stats

// Substream derivation for deterministic parallel consumption of one
// sequential RNG stream.
//
// The serving loop's click stream is a single sequential generator: query
// i's rolls follow query i-1's in the stream. To roll queries on several
// workers while every roll keeps its position in that stream, the master
// is partitioned by draw count: once the number of draws each consumer
// will make is known, SubStreams walks the master generator once,
// recording the state at each consumer's start position. Each worker then
// restores its consumer states into a private generator and draws
// independently — the values at those stream positions, regardless of
// which worker serves which consumer.

// SubStreams captures, for each consumer i, the master generator's state
// immediately before consumer i's draws[i] Uint64 draws, then advances
// the master past them. States are appended to dst (a reusable scratch;
// pass dst[:0] to reuse its storage) and the extended slice is returned.
//
// After the call the master has advanced by exactly sum(draws) draws —
// the position one generator drawing them all in order ends at — so
// checkpoints and later consumers of the master stream do not depend on
// how the consumers were spread over workers.
func SubStreams(master *RNG, draws []int32, dst []RNGState) []RNGState {
	for _, n := range draws {
		dst = append(dst, master.State())
		for j := int32(0); j < n; j++ {
			master.Uint64()
		}
	}
	return dst
}
