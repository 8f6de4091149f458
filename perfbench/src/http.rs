//! A minimal HTTP/1.1 client: request framing and a streaming response
//! reader.
//! Independent of the server's own HTTP code, so a change there cannot
//! change how the benchmark reads responses.

use std::io::{self, BufRead};

/// Full request bytes for `method path` with a JSON `body`.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A parsed response head.
#[derive(Debug)]
struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
}

fn parse_head(text: &str) -> io::Result<Head> {
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let mut head = Head {
        status,
        content_length: None,
        chunked: false,
    };
    for line in lines.filter(|line| !line.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("bad header line {line:?}")))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = Some(value.parse().map_err(|_| invalid("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            head.chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    Ok(head)
}

/// Read one response from a blocking stream, handing every body piece to
/// `on_body` as it arrives (chunked or length-delimited). Returns the
/// status.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    mut on_body: impl FnMut(&[u8]),
) -> io::Result<u16> {
    let mut head_text = String::new();
    loop {
        let before = head_text.len();
        if reader.read_line(&mut head_text)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if &head_text[before..] == "\r\n" {
            break;
        }
    }
    let head = parse_head(&head_text)?;
    let mut piece = vec![0u8; 64 * 1024];
    if head.chunked {
        let mut size_line = String::new();
        loop {
            size_line.clear();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim_end(), 16)
                .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf)?;
                return Ok(head.status);
            }
            let mut left = size;
            while left > 0 {
                let want = left.min(piece.len());
                reader.read_exact(&mut piece[..want])?;
                on_body(&piece[..want]);
                left -= want;
            }
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    }
    let mut left = head
        .content_length
        .ok_or_else(|| invalid("response has neither a length nor chunking"))?;
    while left > 0 {
        let want = left.min(piece.len());
        reader.read_exact(&mut piece[..want])?;
        on_body(&piece[..want]);
        left -= want;
    }
    Ok(head.status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_chunked_and_length_delimited_bodies() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n\
HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno";
        let mut reader = io::BufReader::new(&wire[..]);
        let mut body = Vec::new();
        assert_eq!(
            read_response(&mut reader, |p| body.extend_from_slice(p)).unwrap(),
            200
        );
        assert_eq!(body, b"abcde");
        body.clear();
        assert_eq!(
            read_response(&mut reader, |p| body.extend_from_slice(p)).unwrap(),
            404
        );
        assert_eq!(body, b"no");
    }
}
