//! Hand-rolled (de)serialization for campaign specs and results.
//!
//! The framework previously leaned on serde derives, but this repository
//! builds in registry-less environments, so the whole workspace is now
//! dependency-free. Two formats cover every need the derives served:
//!
//! - **JSON writer** for results ([`RunResult::to_json`]) and specs
//!   ([`CampaignSpec::to_json`]) — machine-readable campaign archives.
//! - **Line codec** for specs ([`CampaignSpec::to_line`] /
//!   [`CampaignSpec::from_line`]) — one campaign per line,
//!   tab-separated `key=value` pairs, trivially diffable and replayable.

use std::fmt::Write as _;

use netfi_obs::export::escape_json;

use crate::campaign::{default_window, CampaignSpec, FaultSpec, SymbolSpec};
use crate::results::RunResult;

/// Formats an `f64` so that parsing the output recovers the exact value
/// (Rust's shortest-roundtrip float formatting), with JSON-compatible
/// spellings for the non-finite cases.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // JSON requires a fraction or exponent marker for non-integers
        // only; bare integers like "3" are fine. Keep as-is.
        s
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        "null".to_string()
    }
}

impl RunResult {
    /// Serializes this result as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + 24 * self.extra.len());
        out.push_str("{\"name\":\"");
        escape_json(&self.name, &mut out);
        let _ = write!(
            out,
            "\",\"sent\":{},\"received\":{},\"window_secs\":{},\"extra\":{{",
            self.sent,
            self.received,
            json_number(self.window_secs),
        );
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, &mut out);
            let _ = write!(out, "\":{}", json_number(*v));
        }
        out.push_str("}}");
        out
    }
}

/// Serializes a result list as a JSON array.
pub fn results_to_json(results: &[RunResult]) -> String {
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

impl SymbolSpec {
    fn as_str(self) -> &'static str {
        match self {
            SymbolSpec::Gap => "GAP",
            SymbolSpec::Go => "GO",
            SymbolSpec::Stop => "STOP",
            SymbolSpec::Idle => "IDLE",
        }
    }

    fn parse(s: &str) -> Result<SymbolSpec, SpecParseError> {
        match s {
            "GAP" => Ok(SymbolSpec::Gap),
            "GO" => Ok(SymbolSpec::Go),
            "STOP" => Ok(SymbolSpec::Stop),
            "IDLE" => Ok(SymbolSpec::Idle),
            _ => Err(SpecParseError::BadValue("symbol")),
        }
    }
}

impl FaultSpec {
    /// The stable `kind` tag used by both the line and JSON encodings.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::ControlSymbol { .. } => "control_symbol",
            FaultSpec::FaultyStop => "faulty_stop",
            FaultSpec::GapLoss => "gap_loss",
            FaultSpec::MappingType => "mapping_type",
            FaultSpec::DataType => "data_type",
            FaultSpec::RouteMsb => "route_msb",
            FaultSpec::Misroute => "misroute",
            FaultSpec::DestinationAddress { .. } => "destination_address",
            FaultSpec::OwnAddress => "own_address",
            FaultSpec::NonexistentAddress => "nonexistent_address",
            FaultSpec::UdpAliasing => "udp_aliasing",
            FaultSpec::RandomSeu { .. } => "random_seu",
            FaultSpec::Latency { .. } => "latency",
        }
    }
}

/// Why a campaign line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecParseError {
    /// A `key=value` pair was malformed.
    BadPair,
    /// A required key was missing for the declared kind.
    MissingKey(&'static str),
    /// A value failed to parse for the named key.
    BadValue(&'static str),
    /// The `kind` tag named no known fault family.
    UnknownKind,
}

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecParseError::BadPair => write!(f, "malformed key=value pair"),
            SpecParseError::MissingKey(k) => write!(f, "missing key `{k}`"),
            SpecParseError::BadValue(k) => write!(f, "bad value for `{k}`"),
            SpecParseError::UnknownKind => write!(f, "unknown fault kind"),
        }
    }
}

impl std::error::Error for SpecParseError {}

fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl CampaignSpec {
    /// Encodes this campaign as one tab-separated `key=value` line.
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "name={}\tkind={}\tseed={}\twindow_secs={}",
            escape_field(&self.name),
            self.fault.kind(),
            self.seed,
            self.window_secs
        );
        match &self.fault {
            FaultSpec::ControlSymbol { mask, replacement } => {
                let _ = write!(
                    out,
                    "\tmask={}\treplacement={}",
                    mask.as_str(),
                    replacement.as_str()
                );
            }
            FaultSpec::DestinationAddress { fix_crc } => {
                let _ = write!(out, "\tfix_crc={fix_crc}");
            }
            FaultSpec::RandomSeu {
                probability,
                fix_crc,
            } => {
                let _ = write!(out, "\tprobability={probability}\tfix_crc={fix_crc}");
            }
            FaultSpec::Latency { packets } => {
                let _ = write!(out, "\tpackets={packets}");
            }
            _ => {}
        }
        out
    }

    /// Parses a campaign from a [`CampaignSpec::to_line`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] describing the first malformed,
    /// missing, or unknown field.
    pub fn from_line(line: &str) -> Result<CampaignSpec, SpecParseError> {
        let mut name = None;
        let mut kind = None;
        let mut seed = None;
        let mut window_secs = None;
        let mut mask = None;
        let mut replacement = None;
        let mut fix_crc = None;
        let mut probability = None;
        let mut packets = None;
        for pair in line.split('\t').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').ok_or(SpecParseError::BadPair)?;
            match key {
                "name" => name = Some(unescape_field(value)),
                "kind" => kind = Some(value.to_string()),
                "seed" => {
                    seed = Some(value.parse().map_err(|_| SpecParseError::BadValue("seed"))?)
                }
                "window_secs" => {
                    window_secs = Some(
                        value
                            .parse()
                            .map_err(|_| SpecParseError::BadValue("window_secs"))?,
                    )
                }
                "mask" => mask = Some(SymbolSpec::parse(value)?),
                "replacement" => replacement = Some(SymbolSpec::parse(value)?),
                "fix_crc" => {
                    fix_crc = Some(
                        value
                            .parse()
                            .map_err(|_| SpecParseError::BadValue("fix_crc"))?,
                    )
                }
                "probability" => {
                    probability = Some(
                        value
                            .parse()
                            .map_err(|_| SpecParseError::BadValue("probability"))?,
                    )
                }
                "packets" => {
                    packets = Some(
                        value
                            .parse()
                            .map_err(|_| SpecParseError::BadValue("packets"))?,
                    )
                }
                _ => {} // Unknown keys are ignored for forward compatibility.
            }
        }
        let kind = kind.ok_or(SpecParseError::MissingKey("kind"))?;
        let fault = match kind.as_str() {
            "control_symbol" => FaultSpec::ControlSymbol {
                mask: mask.ok_or(SpecParseError::MissingKey("mask"))?,
                replacement: replacement.ok_or(SpecParseError::MissingKey("replacement"))?,
            },
            "faulty_stop" => FaultSpec::FaultyStop,
            "gap_loss" => FaultSpec::GapLoss,
            "mapping_type" => FaultSpec::MappingType,
            "data_type" => FaultSpec::DataType,
            "route_msb" => FaultSpec::RouteMsb,
            "misroute" => FaultSpec::Misroute,
            "destination_address" => FaultSpec::DestinationAddress {
                fix_crc: fix_crc.ok_or(SpecParseError::MissingKey("fix_crc"))?,
            },
            "own_address" => FaultSpec::OwnAddress,
            "nonexistent_address" => FaultSpec::NonexistentAddress,
            "udp_aliasing" => FaultSpec::UdpAliasing,
            "random_seu" => FaultSpec::RandomSeu {
                probability: probability.ok_or(SpecParseError::MissingKey("probability"))?,
                fix_crc: fix_crc.ok_or(SpecParseError::MissingKey("fix_crc"))?,
            },
            "latency" => FaultSpec::Latency {
                packets: packets.ok_or(SpecParseError::MissingKey("packets"))?,
            },
            _ => return Err(SpecParseError::UnknownKind),
        };
        Ok(CampaignSpec {
            name: name.ok_or(SpecParseError::MissingKey("name"))?,
            fault,
            seed: seed.ok_or(SpecParseError::MissingKey("seed"))?,
            window_secs: window_secs.unwrap_or_else(default_window),
        })
    }

    /// Serializes this campaign as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\":\"");
        escape_json(&self.name, &mut out);
        let _ = write!(
            out,
            "\",\"seed\":{},\"window_secs\":{},\"fault\":{{\"kind\":\"{}\"",
            self.seed,
            self.window_secs,
            self.fault.kind()
        );
        match &self.fault {
            FaultSpec::ControlSymbol { mask, replacement } => {
                let _ = write!(
                    out,
                    ",\"mask\":\"{}\",\"replacement\":\"{}\"",
                    mask.as_str(),
                    replacement.as_str()
                );
            }
            FaultSpec::DestinationAddress { fix_crc } => {
                let _ = write!(out, ",\"fix_crc\":{fix_crc}");
            }
            FaultSpec::RandomSeu {
                probability,
                fix_crc,
            } => {
                let _ = write!(
                    out,
                    ",\"probability\":{},\"fix_crc\":{fix_crc}",
                    json_number(*probability)
                );
            }
            FaultSpec::Latency { packets } => {
                let _ = write!(out, ",\"packets\":{packets}");
            }
            _ => {}
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::paper_campaigns;

    #[test]
    fn every_paper_campaign_roundtrips_through_lines() {
        for spec in paper_campaigns(42) {
            let line = spec.to_line();
            let back = CampaignSpec::from_line(&line).unwrap();
            assert_eq!(back, spec, "line was: {line}");
        }
    }

    #[test]
    fn parameterized_variants_roundtrip() {
        for fault in [
            FaultSpec::DestinationAddress { fix_crc: true },
            FaultSpec::RandomSeu {
                probability: 0.012_345_678_9,
                fix_crc: false,
            },
            FaultSpec::Latency { packets: 2_000_000 },
        ] {
            let spec = CampaignSpec::new("tab\tand\\slash", fault, 7);
            let back = CampaignSpec::from_line(&spec.to_line()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn missing_window_defaults() {
        let spec = CampaignSpec::from_line("name=x\tkind=gap_loss\tseed=3").unwrap();
        assert_eq!(spec.window_secs, 6);
    }

    #[test]
    fn parse_errors_are_specific() {
        assert_eq!(
            CampaignSpec::from_line("name=x\tseed=1"),
            Err(SpecParseError::MissingKey("kind"))
        );
        assert_eq!(
            CampaignSpec::from_line("name=x\tkind=wat\tseed=1"),
            Err(SpecParseError::UnknownKind)
        );
        assert_eq!(
            CampaignSpec::from_line("name=x\tkind=latency\tseed=zzz"),
            Err(SpecParseError::BadValue("seed"))
        );
        assert_eq!(
            CampaignSpec::from_line("garbage"),
            Err(SpecParseError::BadPair)
        );
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let spec = CampaignSpec::new(
            "quote\"backslash\\",
            FaultSpec::ControlSymbol {
                mask: SymbolSpec::Stop,
                replacement: SymbolSpec::Gap,
            },
            9,
        );
        let json = spec.to_json();
        assert!(json.contains("\"quote\\\"backslash\\\\\""));
        assert!(json.contains("\"kind\":\"control_symbol\""));
        assert!(json.contains("\"mask\":\"STOP\""));
    }

    #[test]
    fn results_array_is_valid_shape() {
        let rows = vec![
            RunResult::new("a", 1, 1, 1.0),
            RunResult::new("b", 2, 1, 1.0).with_extra("x", 0.5),
        ];
        let json = results_to_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"name\"").count(), 2);
    }
}
