//! Fuzz of the campaign service's request parser, over a real loopback
//! socket: random bytes and mutated valid requests (edge
//! `Content-Length` values, cut heads, bare-`\n` heads, non-UTF-8
//! bodies, oversized heads) are written into a connection and read
//! with `serve::http::read_request_within` under short deadlines. Each
//! read must end with a request, a 4xx answer, or a socket error —
//! never a panic. Writers either close their side after the bytes
//! (the parser sees an end of stream) or hold it open (the parser runs
//! into its deadline).

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use chunkpoint_serve::http::{read_request_within, Request};
use proptest::prelude::*;

/// Phase deadline of the fuzz reads: short, so an input that never
/// completes a request costs milliseconds.
const SHORT_DEADLINE: Duration = Duration::from_millis(10);
/// Phase deadline of the reads whose outcome is asserted exactly: long
/// enough that a loaded machine cannot turn them into a 408.
const LONG_DEADLINE: Duration = Duration::from_secs(5);

const BODY: &str = r#"{"version":1,"campaign_seed":7}"#;

/// A valid request with `length` as its `Content-Length` value and
/// `body` behind the head.
fn request(length: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /campaigns HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {length}\r\n\r\n"
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// `Content-Length` values at and past the parser's edges: signs,
/// spaces, other radixes, the 64 MiB body cap and the integer range.
const LENGTHS: [&str; 14] = [
    "0",
    "-1",
    "+31",
    " 31 ",
    "31 31",
    "0x1f",
    "",
    "1e3",
    "67108864",
    "67108865",
    "18446744073709551615",
    "18446744073709551616",
    "30",
    "32",
];

/// How one read ended, once checked: a request, or the 4xx status the
/// parser answered with, or a socket error.
#[derive(Debug)]
enum Outcome {
    Request(Request),
    Answer(u16),
    Socket,
}

/// Writes `bytes` into a fresh loopback connection, closing its write
/// side after them when `close`, and reads one request off the other
/// end with `deadline` per phase.
fn read(bytes: &[u8], close: bool, deadline: Duration) -> Outcome {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let input = bytes.to_vec();
    let writer = std::thread::spawn(move || {
        let mut client = TcpStream::connect(addr).expect("connect");
        // The reader may answer and hang up before the last byte.
        let _ = client.write_all(&input);
        if close {
            let _ = client.shutdown(Shutdown::Write);
        }
        // Returned, not dropped: an open write side stays open until
        // the reader is done.
        client
    });
    let (mut server, _) = listener.accept().expect("accept");
    let outcome = match read_request_within(&mut server, deadline, deadline) {
        Ok(Ok(request)) => Outcome::Request(request),
        Ok(Err(response)) => Outcome::Answer(response.status),
        Err(_) => Outcome::Socket,
    };
    drop(server);
    drop(writer.join().expect("writer"));
    if let Outcome::Answer(status) = outcome {
        assert!(
            (400..500).contains(&status),
            "answered {status} to {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    outcome
}

#[test]
fn the_valid_request_and_its_known_faults_read_as_specified() {
    let valid = request(&BODY.len().to_string(), BODY.as_bytes());
    for bytes in [
        valid.clone(),
        String::from_utf8(valid.clone())
            .unwrap()
            .replace("\r\n", "\n")
            .into_bytes(),
    ] {
        match read(&bytes, true, LONG_DEADLINE) {
            Outcome::Request(request) => {
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/campaigns");
                assert_eq!(request.body, BODY);
            }
            other => panic!("valid request read as {other:?}"),
        }
    }
    // A length repeated with the same value frames the same body.
    let repeated = format!("{}\r\nContent-Length: {}", BODY.len(), BODY.len());
    match read(&request(&repeated, BODY.as_bytes()), true, LONG_DEADLINE) {
        Outcome::Request(request) => assert_eq!(request.body, BODY),
        other => panic!("a repeated length read as {other:?}"),
    }
    let status = |bytes: &[u8], close: bool, deadline: Duration| match read(bytes, close, deadline)
    {
        Outcome::Answer(status) => status,
        other => panic!("expected an answer, got {other:?}"),
    };
    // A signed length, and two lengths that disagree: framing a proxy in
    // front may read differently.
    assert_eq!(
        status(
            &request(&format!("+{}", BODY.len()), BODY.as_bytes()),
            true,
            LONG_DEADLINE
        ),
        400
    );
    let conflicting = format!("3\r\nContent-Length: {}", BODY.len());
    assert_eq!(
        status(&request(&conflicting, BODY.as_bytes()), true, LONG_DEADLINE),
        400
    );
    // A body past the cap, a bad length, a cut body, a body that is not
    // UTF-8, a head that never ends, and a body that never arrives.
    assert_eq!(status(&request("67108865", b""), true, LONG_DEADLINE), 413);
    assert_eq!(
        status(&request("-1", BODY.as_bytes()), true, LONG_DEADLINE),
        400
    );
    assert_eq!(
        status(&request("32", BODY.as_bytes()), true, LONG_DEADLINE),
        400
    );
    assert_eq!(
        status(
            &request("4", &[b'{', 0xFF, 0xFE, b'}']),
            true,
            LONG_DEADLINE
        ),
        400
    );
    assert_eq!(status(&vec![b'a'; 20 * 1024], true, LONG_DEADLINE), 413);
    assert_eq!(status(&valid[..40], false, SHORT_DEADLINE), 408);
    assert_eq!(
        status(&request("32", BODY.as_bytes()), false, SHORT_DEADLINE),
        408
    );
}

/// Every `Content-Length` edge and every cut of the valid request, with
/// the write side closed and held open.
#[test]
fn every_length_edge_and_cut_reads_as_a_request_an_answer_or_an_error() {
    for length in LENGTHS {
        for close in [true, false] {
            read(&request(length, BODY.as_bytes()), close, SHORT_DEADLINE);
        }
    }
    let valid = request(&BODY.len().to_string(), BODY.as_bytes());
    for cut in 0..valid.len() {
        read(&valid[..cut], true, SHORT_DEADLINE);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Mutated valid requests: an edge length, a cut, bare-`\n` line
    /// ends, and junk in place of the body, in any combination.
    #[test]
    fn mutated_requests_read_as_a_request_an_answer_or_an_error(
        length in 0usize..LENGTHS.len(),
        cut in any::<usize>(),
        bare in any::<bool>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        close in any::<bool>(),
    ) {
        let body = if junk.is_empty() { BODY.as_bytes().to_vec() } else { junk };
        let mut bytes = request(LENGTHS[length], &body);
        if bare {
            bytes = String::from_utf8_lossy(&bytes).replace("\r\n", "\n").into_bytes();
        }
        bytes.truncate(cut % (bytes.len() + 1));
        read(&bytes, close, SHORT_DEADLINE);
    }

    /// Random bytes, with the write side closed or held open.
    #[test]
    fn random_bytes_read_as_a_request_an_answer_or_an_error(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
        close in any::<bool>(),
    ) {
        read(&raw, close, SHORT_DEADLINE);
    }
}
