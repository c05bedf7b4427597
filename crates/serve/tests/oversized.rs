//! A reply too large for one frame: `query all` on a program whose report
//! exceeds `MAX_FRAME_LEN` must answer with a typed error carrying the
//! request id and the reply size, count it in `errors`, and leave the
//! connection open for the next request.

use modref_progen::{generate, GenConfig};
use modref_serve::{Client, QueryTarget, Request, Server, ServerConfig, Status, MAX_FRAME_LEN};

#[test]
fn oversized_reply_is_a_typed_error_and_the_connection_survives() {
    let handle = Server::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        ServerConfig::default(),
    )
    .expect("binds")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let program = generate(&GenConfig::fortran_like(200), 42).to_source();
    let resp = client
        .request(Request::Open {
            session: "big".to_string(),
            program,
            lazy: false,
        })
        .expect("open answers");
    assert_eq!(resp.status, Status::Ok);

    let resp = client
        .request(Request::Query {
            session: "big".to_string(),
            target: QueryTarget::All,
        })
        .expect("an oversized reply still answers");
    assert_eq!(resp.status, Status::Error);
    assert!(resp.id.is_some(), "the error echoes the request id");
    let message = resp.str_field("error").expect("error message");
    let bytes: usize = message
        .strip_prefix("reply of ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("message names the reply size: {message}"));
    assert!(bytes > MAX_FRAME_LEN, "{message}");
    assert!(message.contains(&MAX_FRAME_LEN.to_string()), "{message}");

    // Same connection: point queries and stats still answer.
    let resp = client
        .request(Request::Query {
            session: "big".to_string(),
            target: QueryTarget::Site(0),
        })
        .expect("the connection stays open");
    assert_eq!(resp.status, Status::Ok);
    let stats = client.request(Request::Stats).expect("stats answers");
    assert_eq!(stats.uint_field("errors"), Some(1));
    handle.shutdown();
}
