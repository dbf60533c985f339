package radio

// Frame is one transmission as its receivers get it. A backend hands
// the same *Frame to every receiver of one transmission: the 802.11p
// Medium per frame on the air, the PC5Medium per sidelink grant and the
// Uu path per uplinked message. Receivers may read and retain Bytes
// but must not write to it. Decoded is the one slot a receiver may
// write: the first receiver that parses Bytes stores its parse there
// and the later ones read it, so a frame heard by n stations is parsed
// once. What a receiver finds in Decoded is shared with every other
// receiver of the frame, so it too is read-only.
type Frame struct {
	Bytes   []byte
	Decoded any
}

// Link is the access layer one station binds to: the GN router sends
// through SendBroadcast and receives on the callback set with
// SetReceiver, which gets every frame this station decodes as the
// transmission's shared *Frame.
type Link interface {
	SendBroadcast(frame []byte) error
	SetReceiver(fn func(*Frame))
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
