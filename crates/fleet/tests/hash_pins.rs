//! Pins the workspace hashes to fixed outputs. Journal checksums, shard
//! ownership, sweep cache keys and chaos/retry draws are all derived from
//! `cnt_sweep::seed::{fnv1a, mix}`; a change to either function would
//! orphan every journal and cache on disk and reshuffle a running fleet,
//! so any change must show up here first.

use cnt_fleet::{journal::Journal, HashRing};
use cnt_sweep::seed::fnv1a;

#[test]
fn fnv1a_outputs_are_pinned() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    assert_eq!(fnv1a(b"127.0.0.1:8090"), 0x1cf4_50ae_52b7_7155);
}

#[test]
fn journal_record_framing_is_pinned() {
    let dir = std::env::temp_dir().join(format!("cnt-hash-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("journal.log");
    let payload = r#"{"event":"chunk_done","job":"00feed-000001","index":3}"#;
    Journal::open(&path).unwrap().append(payload).unwrap();
    let raw = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(raw.len(), 4 + 8 + payload.len());
    assert_eq!(raw[..4], (payload.len() as u32).to_le_bytes());
    let checksum = u64::from_le_bytes(raw[4..12].try_into().unwrap());
    assert_eq!(checksum, 0xe99a_1b35_ddc0_8a51);
    assert_eq!(&raw[12..], payload.as_bytes());
}

#[test]
fn ring_ownership_is_pinned() {
    let ring = HashRing::new(&["a:1", "b:2", "c:3"]);
    let owners: String = (0..=255u8)
        .map(|shard| char::from(b'0' + ring.owner_of_shard(shard).unwrap() as u8))
        .collect();
    assert_eq!(
        owners,
        concat!(
            "2101120122012021121200101120100102112010112211221020212001002221",
            "0001211001100212112210110012122210112202122001101110202222221001",
            "0010110220210002202021101021112120202102212020211122210001222021",
            "2121002001112221021010120112222221102202212111200110000012101010",
        )
    );
    assert_eq!(ring.shard_counts(), vec![79, 90, 87]);
}
