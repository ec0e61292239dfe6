//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with an `"op"` field and an
//! optional `"id"` (echoed back verbatim so clients can pipeline). Every
//! response is one JSON object on one line with `"ok": true` (plus
//! op-specific fields) or `"ok": false` with a stable machine-readable
//! `"code"` and a human-readable `"error"`. The full schema catalogue lives
//! in `docs/SERVICE.md`.

use datalog_json::Value;
use std::fmt;

/// Default cap on a single request line, in bytes.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default per-connection read timeout, in milliseconds. A connection that
/// sends nothing for this long is closed (with a best-effort
/// [`ErrorCode::ReadTimeout`] response), so stalled or half-dead peers
/// cannot pin a worker thread forever.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

/// Stable error codes, the machine-readable half of every failure response.
///
/// These strings are part of the wire contract: tests and clients match on
/// them, so variants may be added but never renamed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON (or not a JSON object).
    BadJson,
    /// The request was JSON but missing/mistyped a required field.
    BadRequest,
    /// The request line exceeded the server's byte limit.
    PayloadTooLarge,
    /// The connection idled past the read timeout and was closed.
    ReadTimeout,
    /// The `"op"` value names no known operation.
    UnknownOp,
    /// The named program is not installed.
    UnknownProgram,
    /// A Datalog source field (`rules`, `facts`, `atom`) failed to parse.
    ParseError,
    /// The program parsed but failed validation (range restriction etc.).
    ValidationError,
    /// The request is well-formed but asks for something the service does
    /// not support (e.g. installing a program with negation).
    Unsupported,
    /// The handler panicked; the connection survives, the request failed.
    Internal,
    /// Admission control: the server is at its connection limit and turned
    /// this connection away.
    Overloaded,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::ReadTimeout => "read_timeout",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownProgram => "unknown_program",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::ValidationError => "validation_error",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failure that becomes an `"ok": false` response.
#[derive(Clone, Debug)]
pub struct ServiceError {
    pub code: ErrorCode,
    pub message: String,
}

impl ServiceError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
        }
    }

    pub fn bad_request(message: impl Into<String>) -> ServiceError {
        ServiceError::new(ErrorCode::BadRequest, message)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Build a success response: `{"ok":true,"op":...,["id":...],...fields}`.
pub fn ok_response(
    id: Option<&Value>,
    op: &str,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("ok".into(), Value::Bool(true)),
        ("op".into(), Value::from(op)),
    ];
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(pairs)
}

/// Build a failure response: `{"ok":false,"code":...,"error":...,["id":...]}`.
pub fn error_response(id: Option<&Value>, error: &ServiceError) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("ok".into(), Value::Bool(false)),
        ("code".into(), Value::from(error.code.as_str())),
        ("error".into(), Value::from(error.message.as_str())),
    ];
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    Value::Object(pairs)
}

/// Required string field accessor.
pub fn str_field<'a>(req: &'a Value, name: &str) -> Result<&'a str, ServiceError> {
    req.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| ServiceError::bad_request(format!("missing or non-string field '{name}'")))
}

/// Optional boolean field accessor with a default.
pub fn bool_field(req: &Value, name: &str, default: bool) -> Result<bool, ServiceError> {
    match req.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServiceError::bad_request(format!("field '{name}' must be a boolean"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_have_stable_shape() {
        let id = Value::from(7u64);
        let ok = ok_response(Some(&id), "ping", []);
        assert_eq!(ok.to_compact(), "{\"ok\":true,\"op\":\"ping\",\"id\":7}");

        let err = error_response(None, &ServiceError::new(ErrorCode::UnknownOp, "no such op"));
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("code").unwrap().as_str(), Some("unknown_op"));
        assert_eq!(err.get("error").unwrap().as_str(), Some("no such op"));
    }

    #[test]
    fn field_accessors_report_stable_codes() {
        let req = Value::parse("{\"op\":\"install\",\"flag\":1}").unwrap();
        assert_eq!(str_field(&req, "op").unwrap(), "install");
        let missing = str_field(&req, "program").unwrap_err();
        assert_eq!(missing.code, ErrorCode::BadRequest);
        assert!(bool_field(&req, "absent", true).unwrap());
        assert_eq!(
            bool_field(&req, "flag", true).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn error_codes_round_trip_as_strings() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::PayloadTooLarge,
            ErrorCode::ReadTimeout,
            ErrorCode::Internal,
            ErrorCode::Overloaded,
        ] {
            assert!(!code.as_str().is_empty());
            assert_eq!(code.to_string(), code.as_str());
        }
    }
}
