//! Property-based tests of the wire codec: round-trip exactness, byte
//! accounting against the ledger's size model, and rejection of every
//! corrupted prefix.

use proptest::prelude::*;
use ptf_net::wire::{decode_frame, Frame, RejectReason, Triple, HEADER_BYTES, MAGIC, VERSION};
use ptf_net::NetError;

fn triple_strategy() -> impl Strategy<Value = Triple> {
    // score from raw bits: every f32 bit pattern (NaNs, infinities,
    // subnormals) must survive the wire exactly
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(u, i, bits)| (u, i, f32::from_bits(bits)))
}

fn triples_strategy() -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(triple_strategy(), 0..64)
}

fn ids_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..=64)
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<bool>(), any::<u64>()).prop_map(|(client, trainable, fingerprint)| {
            Frame::Hello { client, trainable, fingerprint }
        }),
        (any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(client, fleet, rounds)| Frame::Welcome { client, fleet, rounds }),
        (
            any::<u32>(),
            prop_oneof![
                Just(RejectReason::BadFingerprint),
                Just(RejectReason::UnknownClient),
                Just(RejectReason::DuplicateClient),
            ]
        )
            .prop_map(|(client, reason)| Frame::Reject { client, reason }),
        (any::<u32>(), any::<u32>(), ids_strategy()).prop_map(|(round, deadline_ms, clients)| {
            Frame::Announce { round, deadline_ms, clients }
        }),
        (any::<u32>(), any::<u32>(), any::<u32>(), triples_strategy()).prop_map(
            |(client, round, bits, triples)| Frame::Upload {
                client,
                round,
                loss: f32::from_bits(bits),
                triples
            }
        ),
        (any::<u32>(), any::<u32>(), triples_strategy())
            .prop_map(|(client, round, triples)| Frame::Disperse { client, round, triples }),
        (any::<u32>(), any::<u32>()).prop_map(|(client, round)| Frame::Dropped { client, round }),
        any::<u32>().prop_map(|rounds| Frame::Finished { rounds }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode ∘ decode ∘ encode = encode — byte-level round-trip law.
    /// (Compared on re-encoded bytes, not `Frame` equality, so NaN
    /// scores — where `PartialEq` fails — are still pinned exactly.)
    #[test]
    fn encode_decode_encode_is_identity(frame in frame_strategy()) {
        let bytes = frame.to_bytes();
        let decoded = decode_frame(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// The encoded data section is byte-for-byte what the in-process
    /// `CommLedger` charges for the same message (`Payload::Triples`),
    /// for *every* frame — the networked byte accounting satellite.
    #[test]
    fn data_section_matches_ledger_size_model(frame in frame_strategy()) {
        let modeled = frame.payload().map_or(0, |p| p.bytes());
        prop_assert_eq!(frame.data_section_bytes(), modeled);
        // and the encoding agrees: body = fixed metadata + data section
        let bytes = frame.to_bytes();
        let body_len = bytes.len() - HEADER_BYTES;
        let metadata = match &frame {
            Frame::Hello { .. } => 13,
            Frame::Welcome { .. } => 12,
            Frame::Announce { clients, .. } => 12 + 4 * clients.len(), // + count, ids
            Frame::Reject { .. } => 5,
            Frame::Upload { .. } => 12 + 4,   // ids + loss + triple count
            Frame::Disperse { .. } => 8 + 4,  // ids + triple count
            Frame::Dropped { .. } => 8,
            Frame::Finished { .. } => 4,
        };
        prop_assert_eq!(body_len - metadata, frame.data_section_bytes());
    }

    /// Every strict prefix of a valid frame is rejected, never misread.
    #[test]
    fn truncated_frames_are_rejected(frame in frame_strategy(), cut_seed in any::<usize>()) {
        let bytes = frame.to_bytes();
        let cut = cut_seed % bytes.len(); // 0..len, always a strict prefix
        prop_assert!(decode_frame(&bytes[..cut]).is_err());
    }

    /// An announcement's ids survive the wire exactly, and its body is
    /// `round, deadline_ms, count` plus four bytes an id.
    #[test]
    fn announcements_round_trip(round in any::<u32>(), deadline_ms in any::<u32>(), clients in ids_strategy()) {
        let frame = Frame::Announce { round, deadline_ms, clients: clients.clone() };
        let bytes = frame.to_bytes();
        prop_assert_eq!(bytes.len() - HEADER_BYTES, 12 + 4 * clients.len());
        prop_assert_eq!(decode_frame(&bytes).expect("own encoding must decode"), frame);
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err());
        }
    }

    /// A count past the ids the body holds is rejected, never misread.
    #[test]
    fn an_overrunning_announcement_count_is_rejected(clients in ids_strategy(), extra in 1u32..=u32::MAX / 2) {
        let mut bytes = Frame::Announce { round: 0, deadline_ms: 0, clients: clients.clone() }.to_bytes();
        let count = clients.len() as u32 + extra;
        bytes[HEADER_BYTES + 8..HEADER_BYTES + 12].copy_from_slice(&count.to_le_bytes());
        prop_assert!(matches!(decode_frame(&bytes), Err(NetError::Truncated(_))));
    }

    /// Flipping the magic, version, or kind byte is always rejected.
    #[test]
    fn corrupted_headers_are_rejected(frame in frame_strategy(), which in 0usize..3) {
        let mut bytes = frame.to_bytes();
        match which {
            0 => bytes[0] ^= 0xff,           // magic
            1 => bytes[2] = VERSION + 1,     // version
            _ => bytes[3] = 0x7f,            // unknown kind
        }
        prop_assert!(decode_frame(&bytes).is_err());
        // sanity: the untouched header still carries the right magic
        prop_assert_eq!(u16::from_le_bytes([frame.to_bytes()[0], frame.to_bytes()[1]]), MAGIC);
    }
}
