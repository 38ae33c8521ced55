//! Small, testable pieces of the command-line surface.
//!
//! The binary in `main.rs` is all I/O; value parsing lives here so the
//! rejection behavior (a bad `--jobs` is a usage error, exactly like an
//! unknown flag) is covered by unit tests.

/// Parses the operand of `--jobs`.
///
/// # Errors
///
/// Returns a message naming the offending value when the operand is
/// missing, not a number, negative, or zero — zero used to be silently
/// conflated with "unbounded" by callers that clamped, and a negative
/// value parsed as a huge unsigned one; both are plain usage errors now.
pub fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Err("--jobs requires a positive integer".to_owned());
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 1 => usize::try_from(n)
            .map_err(|_| format!("--jobs {raw} exceeds this platform's job limit")),
        Ok(_) => Err(format!("--jobs must be a positive integer (got {raw})")),
        Err(_) => Err(format!("--jobs must be a positive integer (got `{raw}`)")),
    }
}

/// Parses the operand of `--shards` (lockserver shard-lock count).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// not positive — a zero-shard lock table has nowhere to hash keys.
pub fn parse_shards(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Err("--shards requires a positive integer".to_owned());
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 1 => usize::try_from(n)
            .map_err(|_| format!("--shards {raw} exceeds this platform's limit")),
        Ok(_) => Err(format!("--shards must be a positive integer (got {raw})")),
        Err(_) => Err(format!("--shards must be a positive integer (got `{raw}`)")),
    }
}

/// Parses the operand of `--zipf` (lockserver key-skew exponent θ).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// outside the open interval `(0, 1)` the constant-time Zipfian sampler
/// is defined on.
pub fn parse_zipf(value: Option<&str>) -> Result<f64, String> {
    let Some(raw) = value else {
        return Err("--zipf requires an exponent in (0, 1), e.g. 0.99".to_owned());
    };
    match raw.parse::<f64>() {
        Ok(theta) if theta > 0.0 && theta < 1.0 => Ok(theta),
        Ok(_) => Err(format!("--zipf must lie in (0, 1), got {raw}")),
        Err(_) => Err(format!("--zipf must be a number in (0, 1) (got `{raw}`)")),
    }
}

/// Parses the operand of `--kinds`: a comma-separated subset of the
/// registered lock names (case-insensitive), applied by
/// [`crate::kinds::select`] to the kind-sweeping artifacts.
///
/// # Errors
///
/// Returns a usage message — with the full catalog menu — when the
/// operand is missing, empty, or names an unregistered lock. An unknown
/// name is a hard error, not a skip: silently dropping a typo would run a
/// sweep that looks complete but is not.
pub fn parse_kinds(value: Option<&str>) -> Result<Vec<hbo_locks::LockKind>, String> {
    let menu = hbo_locks::LockCatalog::menu();
    let Some(raw) = value else {
        return Err(format!(
            "--kinds requires a comma-separated subset of: {menu}"
        ));
    };
    let mut kinds = Vec::new();
    for name in raw.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err(format!(
                "--kinds has an empty entry in `{raw}`; expected names from: {menu}"
            ));
        }
        match hbo_locks::LockCatalog::parse(name) {
            Ok(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            Err(_) => {
                return Err(format!(
                    "--kinds: unknown lock `{name}`; registered kinds: {menu}"
                ))
            }
        }
    }
    if kinds.is_empty() {
        return Err(format!(
            "--kinds selected nothing; expected names from: {menu}"
        ));
    }
    Ok(kinds)
}

/// Parses the operand of `--protocol` (the coherence model every machine
/// in the run simulates — see [`nucasim::ProtocolKind`]).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no
/// protocol (the valid names are `flat`, `mesi` and `dragon`).
pub fn parse_protocol(value: Option<&str>) -> Result<nucasim::ProtocolKind, String> {
    let Some(raw) = value else {
        return Err("--protocol requires a protocol name (flat, mesi or dragon)".to_owned());
    };
    raw.parse::<nucasim::ProtocolKind>().map_err(|e| format!("--protocol: {e}"))
}

/// Parses the operand of `--binding` (how microbenchmark threads are
/// bound to CPUs — see [`nuca_workloads::modern::BindingKind`]).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no
/// binding (the valid names are `rr` and `clustered`).
pub fn parse_binding(value: Option<&str>) -> Result<nuca_workloads::modern::BindingKind, String> {
    let Some(raw) = value else {
        return Err("--binding requires a binding name (rr or clustered)".to_owned());
    };
    raw.parse::<nuca_workloads::modern::BindingKind>()
        .map_err(|e| format!("--binding: {e}"))
}

/// Parses the operand of `--twa-slots` (TWA waiting-array length).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// not positive — a zero-slot waiting array has nowhere to park waiters.
pub fn parse_twa_slots(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Err("--twa-slots requires a positive integer".to_owned());
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 1 => usize::try_from(n)
            .map_err(|_| format!("--twa-slots {raw} exceeds this platform's limit")),
        Ok(_) => Err(format!("--twa-slots must be a positive integer (got {raw})")),
        Err(_) => Err(format!("--twa-slots must be a positive integer (got `{raw}`)")),
    }
}

/// Parses the operand of `--twa-hash` (TWA ticket→slot mapping).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no hash
/// (the valid names are `mod` and `stride`).
pub fn parse_twa_hash(value: Option<&str>) -> Result<nucasim_locks::TwaHash, String> {
    let Some(raw) = value else {
        return Err("--twa-hash requires a hash name (mod or stride)".to_owned());
    };
    raw.parse::<nucasim_locks::TwaHash>().map_err(|e| format!("--twa-hash: {e}"))
}

/// Parses the operand of `--arrival-gap` (lockserver mean cycles between
/// request batches).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// not positive — a zero mean gap would collapse the whole open-loop
/// schedule onto cycle zero.
pub fn parse_arrival_gap(value: Option<&str>) -> Result<u64, String> {
    let Some(raw) = value else {
        return Err("--arrival-gap requires a positive cycle count".to_owned());
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 1 => u64::try_from(n)
            .map_err(|_| format!("--arrival-gap {raw} exceeds the cycle range")),
        Ok(_) => Err(format!("--arrival-gap must be a positive cycle count (got {raw})")),
        Err(_) => Err(format!("--arrival-gap must be a positive cycle count (got `{raw}`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        assert_eq!(parse_jobs(Some("1")), Ok(1));
        assert_eq!(parse_jobs(Some("16")), Ok(16));
    }

    #[test]
    fn rejects_zero() {
        let err = parse_jobs(Some("0")).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(err.contains('0'), "{err}");
    }

    #[test]
    fn rejects_negative() {
        let err = parse_jobs(Some("-2")).unwrap_err();
        assert!(err.contains("-2"), "{err}");
    }

    #[test]
    fn rejects_non_numeric() {
        for bad in ["four", "", "4x", "1.5"] {
            let err = parse_jobs(Some(bad)).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_missing_operand() {
        assert!(parse_jobs(None).is_err());
    }

    #[test]
    fn shards_accepts_positive_and_rejects_the_rest() {
        assert_eq!(parse_shards(Some("16")), Ok(16));
        for bad in ["0", "-3", "many", ""] {
            let err = parse_shards(Some(bad)).unwrap_err();
            assert!(err.contains("--shards"), "{bad}: {err}");
        }
        assert!(parse_shards(None).is_err());
    }

    #[test]
    fn zipf_accepts_open_unit_interval_only() {
        assert_eq!(parse_zipf(Some("0.99")), Ok(0.99));
        assert_eq!(parse_zipf(Some("0.5")), Ok(0.5));
        for bad in ["0", "0.0", "1", "1.0", "1.5", "-0.2", "NaN", "hot", ""] {
            let err = parse_zipf(Some(bad)).unwrap_err();
            assert!(err.contains("--zipf"), "{bad}: {err}");
        }
        assert!(parse_zipf(None).is_err());
    }

    #[test]
    fn kinds_parses_names_dedups_and_keeps_flag_order() {
        use hbo_locks::LockKind;
        assert_eq!(
            parse_kinds(Some("TATAS,MCS,CNA")),
            Ok(vec![LockKind::Tatas, LockKind::Mcs, LockKind::Cna])
        );
        // Case-insensitive, whitespace-tolerant, duplicate-collapsing.
        assert_eq!(
            parse_kinds(Some(" twa , TWA ,recip")),
            Ok(vec![LockKind::Twa, LockKind::Recip])
        );
    }

    #[test]
    fn kinds_rejects_unknown_names_with_the_catalog_menu() {
        let err = parse_kinds(Some("TATAS,QOLB")).unwrap_err();
        assert!(err.contains("QOLB"), "{err}");
        assert!(err.contains("TATAS") && err.contains("RECIP"), "{err}");
        for bad in ["", ",", "MCS,,CLH"] {
            let err = parse_kinds(Some(bad)).unwrap_err();
            assert!(err.contains("--kinds"), "`{bad}`: {err}");
        }
        assert!(parse_kinds(None).is_err());
    }

    #[test]
    fn protocol_accepts_every_name_and_rejects_the_rest() {
        for proto in nucasim::ProtocolKind::ALL {
            assert_eq!(parse_protocol(Some(proto.name())), Ok(proto));
        }
        let err = parse_protocol(Some("splay")).unwrap_err();
        assert!(err.contains("splay"), "{err}");
        assert!(err.contains("mesi"), "{err}");
        assert!(parse_protocol(None).is_err());
    }

    #[test]
    fn binding_accepts_every_name_and_rejects_the_rest() {
        for binding in nuca_workloads::modern::BindingKind::ALL {
            assert_eq!(parse_binding(Some(binding.name())), Ok(binding));
        }
        let err = parse_binding(Some("spread")).unwrap_err();
        assert!(err.contains("spread"), "{err}");
        assert!(err.contains("clustered"), "{err}");
        assert!(parse_binding(None).is_err());
    }

    #[test]
    fn twa_slots_accepts_positive_and_rejects_the_rest() {
        assert_eq!(parse_twa_slots(Some("64")), Ok(64));
        for bad in ["0", "-4", "lots", ""] {
            let err = parse_twa_slots(Some(bad)).unwrap_err();
            assert!(err.contains("--twa-slots"), "{bad}: {err}");
        }
        assert!(parse_twa_slots(None).is_err());
    }

    #[test]
    fn twa_hash_accepts_every_name_and_rejects_the_rest() {
        for hash in nucasim_locks::TwaHash::ALL {
            assert_eq!(parse_twa_hash(Some(hash.name())), Ok(hash));
        }
        let err = parse_twa_hash(Some("xor")).unwrap_err();
        assert!(err.contains("xor"), "{err}");
        assert!(err.contains("stride"), "{err}");
        assert!(parse_twa_hash(None).is_err());
    }

    #[test]
    fn arrival_gap_accepts_positive_cycles_only() {
        assert_eq!(parse_arrival_gap(Some("30000")), Ok(30_000));
        for bad in ["0", "-1", "soon", "2.5", ""] {
            let err = parse_arrival_gap(Some(bad)).unwrap_err();
            assert!(err.contains("--arrival-gap"), "{bad}: {err}");
        }
        assert!(parse_arrival_gap(None).is_err());
    }
}
