package radio

// Link is the access layer one station binds to: the GN router sends
// through SendBroadcast and receives on the callback set with
// SetReceiver.
type Link interface {
	SendBroadcast(frame []byte) error
	SetReceiver(fn func(frame []byte))
}

// Backend is one access technology stations attach to: the 802.11p
// Medium, the C-V2X sidelink PC5Medium or the Uu path of a
// CellularLink. AttachStation adds the named station at pos and
// returns its Link; on error the Link is nil.
type Backend interface {
	AttachStation(name string, pos PositionFunc) (Link, error)
}

// asLink widens a typed attach result to the Backend signature, so a
// failed attach yields a nil Link rather than a typed nil.
func asLink[L Link](l L, err error) (Link, error) {
	if err != nil {
		return nil, err
	}
	return l, nil
}
