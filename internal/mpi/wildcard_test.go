package mpi

import (
	"bytes"
	"testing"
)

// TestWildcardMatch_Valid lists receive patterns that must take a message:
// wildcards over user tags, and an internal receive over its own tag.
func TestWildcardMatch_Valid(t *testing.T) {
	tests := []struct {
		name     string
		src, tag int
		msg      message
	}{
		{name: "any source, any tag, user message", src: AnySource, tag: AnyTag, msg: message{src: 2, tag: 5}},
		{name: "any tag from the sender", src: 2, tag: AnyTag, msg: message{src: 2, tag: 5}},
		{name: "any source, specific tag", src: AnySource, tag: 5, msg: message{src: 2, tag: 5}},
		{name: "specific source and tag", src: 2, tag: 5, msg: message{src: 2, tag: 5}},
		{name: "any tag, highest user tag", src: AnySource, tag: AnyTag, msg: message{src: 0, tag: userTagLimit - 1}},
		{name: "internal receive, its own tag", src: 1, tag: ctrlTagBase + 3, msg: message{src: 1, tag: ctrlTagBase + 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !matches(tt.src, tt.tag, &tt.msg) {
				t.Errorf("receive (%d, %d) did not take message (%d, %d)", tt.src, tt.tag, tt.msg.src, tt.msg.tag)
			}
		})
	}
}

// TestWildcardMatch_Invalid lists receive patterns that must not take a
// message. A wildcard never matches internal (collective) traffic: real MPI
// keeps the two apart by context id, here by the tag range.
func TestWildcardMatch_Invalid(t *testing.T) {
	tests := []struct {
		name     string
		src, tag int
		msg      message
	}{
		{name: "any source, any tag, collective message", src: AnySource, tag: AnyTag, msg: message{src: 2, tag: ctrlTagBase}},
		{name: "any tag from the sender, collective message", src: 2, tag: AnyTag, msg: message{src: 2, tag: ctrlTagBase + 1<<8}},
		{name: "any source, user tag, collective message", src: AnySource, tag: 5, msg: message{src: 2, tag: ctrlTagBase + 5}},
		{name: "specific tag, other tag", src: 2, tag: 5, msg: message{src: 2, tag: 6}},
		{name: "specific source, other source", src: 2, tag: AnyTag, msg: message{src: 3, tag: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if matches(tt.src, tt.tag, &tt.msg) {
				t.Errorf("receive (%d, %d) took message (%d, %d)", tt.src, tt.tag, tt.msg.src, tt.msg.tag)
			}
		})
	}
}

// TestWildcardRecvBesideCollectives: rank 0 posts a receive, then all four
// ranks run a Bcast rooted at rank 2 (rank 0's parent) and an Alltoall, then
// rank 2 sends rank 0 a user message. The posted receive gets exactly that
// message, and both collectives get theirs.
func TestWildcardRecvBesideCollectives(t *testing.T) {
	tests := []struct {
		name     string
		src, tag int
	}{
		{name: "any source, any tag", src: AnySource, tag: AnyTag},
		{name: "any tag from rank 2", src: 2, tag: AnyTag},
		{name: "any source, tag 5", src: AnySource, tag: 5},
		{name: "rank 2, tag 5", src: 2, tag: 5},
	}
	user := []byte("user")
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, finished := launch(4, func(c *Comm) {
				var req *Request
				if c.Rank() == 0 {
					req = c.Irecv(tt.src, tt.tag)
				}
				if got := c.Bcast(2, []byte{42}); !bytes.Equal(got, []byte{42}) {
					t.Errorf("rank %d: Bcast gave %v", c.Rank(), got)
				}
				send := make([][]byte, 4)
				for d := range send {
					send[d] = []byte{byte(c.Rank()), byte(d)}
				}
				for src, got := range c.Alltoall(send) {
					if !bytes.Equal(got, []byte{byte(src), byte(c.Rank())}) {
						t.Errorf("rank %d: Alltoall block from %d is %v", c.Rank(), src, got)
					}
				}
				switch c.Rank() {
				case 2:
					c.Send(0, 5, user)
				case 0:
					data, st := c.Wait(req)
					if !bytes.Equal(data, user) || st.Source != 2 || st.Tag != 5 {
						t.Errorf("posted receive got %q from %d tag %d, want %q from 2 tag 5", data, st.Source, st.Tag, user)
					}
				}
			})
			if finished != 4 {
				t.Errorf("%d of 4 ranks hung: the posted receive took a collective's message", 4-finished)
			}
		})
	}
}
