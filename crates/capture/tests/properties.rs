//! Property-based tests of dataset invariants: CSV round-trips, splits
//! and class accounting for arbitrary record collections.

use std::io::BufReader;

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use netsim::packet::{Protocol, TcpFlags};
use netsim::rng::SimRng;
use netsim::time::SimTime;
use netsim::Addr;
use proptest::prelude::*;

prop_compose! {
    fn record_strategy()(
        ts_ns in 0u64..60_000_000_000,
        src in any::<u32>(),
        dst in any::<u32>(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        tcp in any::<bool>(),
        flag_bits in 0u8..32,
        wire_len in 28u32..65_535,
        seq in any::<u32>(),
        malicious in any::<bool>(),
    ) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_nanos(ts_ns),
            src: Addr::from_bits(src),
            src_port,
            dst: Addr::from_bits(dst),
            dst_port,
            protocol: if tcp { Protocol::Tcp } else { Protocol::Udp },
            flags: TcpFlags::from_bits(flag_bits),
            wire_len,
            payload_len: wire_len.saturating_sub(28),
            seq,
            label: if malicious { Label::Malicious } else { Label::Benign },
        }
    }
}

proptest! {
    /// CSV export/import is the identity on datasets.
    #[test]
    fn csv_roundtrip(records in proptest::collection::vec(record_strategy(), 0..200)) {
        let dataset = Dataset::from_records(records);
        let mut buf = Vec::new();
        dataset.write_csv(&mut buf).unwrap();
        let back = Dataset::read_csv(BufReader::new(&buf[..])).unwrap();
        prop_assert_eq!(back, dataset);
    }

    /// Class counts partition the dataset and balance is in [0, 1].
    #[test]
    fn class_counts_partition(records in proptest::collection::vec(record_strategy(), 0..300)) {
        let dataset = Dataset::from_records(records);
        let counts = dataset.class_counts();
        prop_assert_eq!(counts.total() as usize, dataset.len());
        prop_assert!((0.0..=1.0).contains(&counts.balance()));
        prop_assert!((0.0..=1.0).contains(&counts.malicious_fraction()));
    }

    /// Chronological splits are ordered partitions of the records.
    #[test]
    fn time_split_partitions(
        records in proptest::collection::vec(record_strategy(), 2..300),
        fraction in 0.1f64..0.9,
    ) {
        let dataset = Dataset::from_records(records);
        let (a, b) = dataset.split_by_time(fraction);
        prop_assert_eq!(a.len() + b.len(), dataset.len());
        if let (Some(last_a), Some(first_b)) = (a.records().last(), b.records().first()) {
            prop_assert!(last_a.ts <= first_b.ts);
        }
        // Re-merging restores the class counts.
        let mut counts = a.class_counts();
        let cb = b.class_counts();
        counts.benign += cb.benign;
        counts.malicious += cb.malicious;
        prop_assert_eq!(counts, dataset.class_counts());
    }

    /// Random splits are exact partitions with the requested sizes.
    #[test]
    fn random_split_partitions(
        records in proptest::collection::vec(record_strategy(), 2..300),
        fraction in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let dataset = Dataset::from_records(records);
        let mut rng = SimRng::seed_from(seed);
        let (a, b) = dataset.split_random(fraction, &mut rng);
        prop_assert_eq!(a.len() + b.len(), dataset.len());
        let expected = (dataset.len() as f64 * fraction).round() as usize;
        prop_assert_eq!(a.len(), expected);
    }

    /// Arbitrary bytes never panic the CSV reader: they parse or fail
    /// as `InvalidData` (non-UTF-8 input and malformed rows alike).
    #[test]
    fn read_csv_never_panics_on_garbage(blob in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Err(e) = Dataset::read_csv(BufReader::new(&blob[..])) {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// A valid export with bytes overwritten by CSV-ish characters —
    /// which reaches every field parser, not just the first — still
    /// parses or fails as `InvalidData`.
    #[test]
    fn read_csv_never_panics_on_corrupted_rows(
        records in proptest::collection::vec(record_strategy(), 1..20),
        edits in proptest::collection::vec((any::<usize>(), 0usize..16), 1..12),
    ) {
        const ALPHABET: &[u8; 16] = b"0123456789,.-\nbm";
        let mut buf = Vec::new();
        Dataset::from_records(records).write_csv(&mut buf).unwrap();
        for (at, byte) in edits {
            let at = at % buf.len();
            buf[at] = ALPHABET[byte];
        }
        if let Err(e) = Dataset::read_csv(BufReader::new(&buf[..])) {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// `from_records` output is always time-sorted.
    #[test]
    fn datasets_are_time_sorted(records in proptest::collection::vec(record_strategy(), 0..200)) {
        let dataset = Dataset::from_records(records);
        prop_assert!(dataset.records().windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
