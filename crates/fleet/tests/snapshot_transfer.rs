//! Snapshot shipping under hostile transfer, against a live
//! store-enabled server: truncation at every byte offset, CRC
//! corruption, version skew, and duplicate pushes. Every bad transfer
//! must come back as a structured `err bad_request` — never a panic,
//! never a dropped connection, never a session leak — and the receiver
//! must stay cold-startable afterward.

use copred_core::{ChtParams, Strategy};
use copred_service::protocol::{Request, Response, SchedMode};
use copred_service::{Server, ServerConfig, ServiceClient};
use copred_store::crc::crc32;
use copred_store::snapshot::{decode, encode};
use copred_store::TableImage;
use copred_trace::frame::{read_text_frame, write_text_frame};
use proptest::prelude::*;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Small table geometry so exhaustive byte-offset truncation stays
/// cheap: 64 entries × two 2-bit counters = 32 payload bytes + header.
fn tiny_params() -> ChtParams {
    ChtParams {
        bits: 6,
        counter_bits: 2,
        strategy: Strategy::new(1.0),
        update_fraction: 0.125,
    }
}

/// A deterministic non-trivial image to ship.
fn sample_image(salt: u64) -> TableImage {
    let mut image = TableImage::empty(tiny_params());
    for (i, cell) in image.cells.iter_mut().enumerate() {
        let v = salt.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        cell.coll = (v % 4) as u8;
        cell.noncoll = ((v >> 8) % 4) as u8;
    }
    image.u_state = salt | 1;
    image
}

struct Rig {
    server: Server,
    client: ServiceClient,
    /// The server's store root, removed when the rig drops.
    dir: PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

static RIG_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-case fingerprints: the cold-start probe persists (empty) state on
/// close, so cases must not share a fingerprint or `snap_none`
/// assertions would see the previous case's probe.
static FP_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_fp() -> u64 {
    0xDEAD_0000_0000 + FP_SEQ.fetch_add(1, Ordering::Relaxed)
}

fn rig() -> Rig {
    let dir = std::env::temp_dir().join(format!(
        "copred-fleet-hostile-{}-{}",
        std::process::id(),
        RIG_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cht_params: tiny_params(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start server");
    let client = ServiceClient::connect(server.local_addr()).expect("connect");
    Rig {
        server,
        client,
        dir,
    }
}

/// One server shared by the property tests (every case leaves it
/// stateless, which the cases themselves assert).
fn shared_rig() -> &'static Mutex<Rig> {
    static SHARED: OnceLock<Mutex<Rig>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(rig()))
}

fn push(rig: &mut Rig, fp: u64, version: u32, crc: u32, payload: Vec<u8>) -> Response {
    rig.client
        .call(&Request::SnapPush {
            fp,
            version,
            crc,
            payload,
        })
        .expect("transport stays up")
}

fn rejection_text(resp: &Response, context: &str) -> String {
    match resp {
        Response::Error(e) => e.to_string(),
        other => panic!("{context}: expected structured rejection, got {other:?}"),
    }
}

/// The receiver is cold-startable and leak-free: a fresh session opens,
/// closes, and the server counts zero open sessions.
fn assert_cold_startable(rig: &mut Rig, fp: u64) {
    let (id, _warm) = rig
        .client
        .open_with_fp("planar-2d", 2, SchedMode::Coord, 3, Some(fp))
        .expect("receiver must still open sessions");
    rig.client.close(id).expect("close");
    let kv = rig.client.stats(None).expect("stats");
    let open = kv
        .iter()
        .find(|(k, _)| k == "sessions_open")
        .expect("sessions_open stat");
    assert_eq!(open.1, "0", "session leak after hostile transfer");
}

#[test]
fn truncation_at_every_byte_offset_is_rejected_with_structure() {
    let mut rig = rig();
    let fp = 0xDEAD_0001;
    let payload = encode(&sample_image(11));
    for k in 0..payload.len() {
        let torn = payload[..k].to_vec();
        // Honest framing (declared length and CRC match the torn bytes):
        // the rejection must come from snapshot validation itself.
        let resp = push(&mut rig, fp, 1, crc32(&torn), torn);
        let text = rejection_text(&resp, &format!("truncated to {k} bytes"));
        assert!(
            text.contains("snapshot"),
            "truncation to {k} bytes: unstructured rejection '{text}'"
        );
    }
    // Nothing hostile stuck: the fingerprint is still absent.
    let resp = rig.client.call(&Request::SnapGet { fp }).expect("snap_get");
    assert_eq!(resp, Response::SnapNone { fp });
    assert_cold_startable(&mut rig, fp);
}

#[test]
fn declared_length_mismatch_is_rejected_at_the_frame() {
    let mut rig = rig();
    let payload = encode(&sample_image(12));
    // The wire text declares the full length but carries a torn hex
    // body; the codec must refuse before any validation runs.
    let full = Request::SnapPush {
        fp: 0xDEAD_0002,
        version: 1,
        crc: crc32(&payload),
        payload: payload.clone(),
    }
    .to_text();
    let (head, hex) = full.split_once('\n').expect("two-line encoding");
    let torn_text = format!("{head}\n{}\n", &hex.trim_end()[..hex.trim_end().len() / 2]);
    let err = Request::from_text(&torn_text).expect_err("torn payload must not parse");
    assert!(err.contains("payload"), "unhelpful parse error: {err}");
    assert_cold_startable(&mut rig, 0xDEAD_0002);
}

#[test]
fn sign_prefixed_hex_pairs_are_rejected_at_the_frame() {
    // `u8::from_str_radix` reads "+f" as 15, so a payload line spelling
    // its low bytes as `+<digit>` would decode to the right bytes and pass
    // the transfer CRC. Wire hex is `[0-9a-fA-F]` pairs and nothing else.
    let mut rig = rig();
    let fp = 0xDEAD_0004;
    let payload = encode(&sample_image(14));
    let text = Request::SnapPush {
        fp,
        version: 1,
        crc: crc32(&payload),
        payload,
    }
    .to_text();
    let (head, hex) = text.split_once('\n').expect("two-line encoding");
    let hex = hex.trim_end();
    let signed: String = hex
        .as_bytes()
        .chunks(2)
        .flat_map(|pair| match pair {
            [b'0', lo] => ['+', char::from(*lo)],
            [hi, lo] => [char::from(*hi), char::from(*lo)],
            _ => unreachable!("even-length hex"),
        })
        .collect();
    assert_ne!(signed, hex, "no byte below 0x10 to re-spell");
    let mut stream = TcpStream::connect(rig.server.local_addr()).expect("connect");
    write_text_frame(&mut stream, &format!("{head}\n{signed}\n")).expect("send");
    let reply = read_text_frame(&mut stream)
        .expect("receive")
        .expect("a reply frame");
    assert_eq!(reply, "err bad_request bad hex payload\n");
    let resp = rig.client.call(&Request::SnapGet { fp }).expect("snap_get");
    assert_eq!(
        resp,
        Response::SnapNone { fp },
        "the store must be untouched"
    );
    assert_cold_startable(&mut rig, fp);
}

#[test]
fn duplicate_pushes_converge_and_offers_become_idempotent() {
    let mut rig = rig();
    let fp = 0xDEAD_0003;
    let image = sample_image(13);
    let payload = encode(&image);
    let crc = crc32(&payload);
    // First push installs fresh state.
    assert_eq!(
        push(&mut rig, fp, 1, crc, payload.clone()),
        Response::SnapApplied { fp, merged: false }
    );
    // The duplicate max-merges into an identical image.
    assert_eq!(
        push(&mut rig, fp, 1, crc, payload.clone()),
        Response::SnapApplied { fp, merged: true }
    );
    let Response::Snap {
        payload: stored, ..
    } = rig.client.call(&Request::SnapGet { fp }).expect("snap_get")
    else {
        panic!("state must exist after applied pushes");
    };
    assert_eq!(
        decode(&stored).expect("stored state decodes"),
        image,
        "duplicate push corrupted the stored image"
    );
    // An offer of bytes the receiver already holds is declined.
    let resp = rig
        .client
        .call(&Request::SnapOffer {
            fp,
            version: 1,
            crc,
            len: payload.len() as u64,
        })
        .expect("snap_offer");
    assert_eq!(resp, Response::SnapWant { fp, want: false });
    assert_cold_startable(&mut rig, fp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn version_skew_is_rejected_not_guessed(version in 2u32..=u32::MAX, salt in 0u64..1000) {
        let mut rig = shared_rig().lock().expect("rig lock");
        let fp = fresh_fp();
        let payload = encode(&sample_image(salt));
        let crc = crc32(&payload);
        let resp = push(&mut rig, fp, version, crc, payload);
        let text = rejection_text(&resp, "version skew");
        prop_assert!(text.contains("version"), "rejection should mention version: {text}");
        let resp = rig.client.call(&Request::SnapGet { fp }).expect("snap_get");
        prop_assert_eq!(resp, Response::SnapNone { fp });
        assert_cold_startable(&mut rig, fp);
    }

    /// With the transfer CRC left matching the *original* bytes, any
    /// flip anywhere in the snapshot is caught at the transfer layer.
    #[test]
    fn any_flip_under_a_stale_transfer_crc_is_rejected(
        salt in 0u64..1000,
        byte in 0usize..84,
        bit in 0u8..8,
    ) {
        let mut rig = shared_rig().lock().expect("rig lock");
        let fp = fresh_fp();
        let original = encode(&sample_image(salt));
        assert_eq!(original.len(), 84, "tiny snapshot geometry changed");
        let mut payload = original.clone();
        payload[byte] ^= 1 << bit;
        let resp = push(&mut rig, fp, 1, crc32(&original), payload);
        let text = rejection_text(&resp, "stale-CRC flip");
        prop_assert!(text.contains("CRC"), "rejection should mention the CRC: {text}");
        let resp = rig.client.call(&Request::SnapGet { fp }).expect("snap_get");
        prop_assert_eq!(resp, Response::SnapNone { fp });
        assert_cold_startable(&mut rig, fp);
    }

    /// Even a flip *re-signed* with a fresh transfer CRC is rejected by
    /// the snapshot's own validation — magic, version, parameter
    /// ranges, geometry, internal payload CRC — everywhere except the
    /// `u_state` field (bytes 36..44), whose integrity is exactly what
    /// the transfer CRC exists to protect.
    #[test]
    fn resigned_flips_outside_u_state_are_still_rejected(
        salt in 0u64..1000,
        byte in 0usize..76,
        bit in 0u8..8,
    ) {
        // Skip over the u_state field: 0..76 maps onto 0..36 ∪ 44..84.
        let byte = if byte >= 36 { byte + 8 } else { byte };
        let mut rig = shared_rig().lock().expect("rig lock");
        let fp = fresh_fp();
        let mut payload = encode(&sample_image(salt));
        payload[byte] ^= 1 << bit;
        let crc = crc32(&payload);
        let resp = push(&mut rig, fp, 1, crc, payload);
        let text = rejection_text(&resp, "re-signed flip");
        prop_assert!(
            text.contains("snapshot"),
            "unstructured rejection: {text}"
        );
        let resp = rig.client.call(&Request::SnapGet { fp }).expect("snap_get");
        prop_assert_eq!(resp, Response::SnapNone { fp });
        assert_cold_startable(&mut rig, fp);
    }
}
