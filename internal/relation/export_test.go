package relation

// SetPieceBytes sets the size past which the CSV ingest cuts a body into
// pieces, so that small inputs span many pieces, and returns a func that
// restores the previous size.
func SetPieceBytes(n int) (restore func()) {
	old := pieceBytes
	pieceBytes = n
	return func() { pieceBytes = old }
}
