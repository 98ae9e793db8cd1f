//! Source scrubbing: reduce a Rust file to just the tokens the lint rules
//! care about, without pulling in a real parser (the build environment is
//! offline, so no `syn`).
//!
//! [`scrub`] replaces the *contents* of comments, string literals, and char
//! literals with spaces, preserving every newline and byte offset, so later
//! passes can string-match for `.unwrap(` or `panic!` without tripping on
//! doc-comment prose or log-message text. [`blank_tests`] then erases the
//! bodies of `#[cfg(test)]` modules and `#[test]` functions, because the
//! rules only govern non-test core code.

/// Replaces comment and literal interiors with spaces (newlines kept).
///
/// Handles line comments, nested block comments, plain/byte strings with
/// escapes, raw strings with any number of `#`s, char and byte-char
/// literals, and the char-vs-lifetime ambiguity (`'a'` scrubs, `<'a>`
/// survives).
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, bytes: &[u8]| {
        for &c in bytes {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let end = memchr(b, i, b'\n').unwrap_or(b.len());
            blank(&mut out, &b[i..end]);
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, &b[i..j]);
            i = j;
            continue;
        }
        // Raw string: r"..." / r#"..."# / br#"..."# — only when `r`/`br` is
        // not the tail of a longer identifier.
        if (c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')))
            && !prev_is_ident(b, i)
        {
            let after_r = if c == b'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            while b.get(after_r + hashes) == Some(&b'#') {
                hashes += 1;
            }
            if b.get(after_r + hashes) == Some(&b'"') {
                let mut j = after_r + hashes + 1;
                while j < b.len() {
                    if b[j] == b'"' && b[j + 1..].starts_with(&vec![b'#'; hashes]) {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, &b[i..j.min(b.len())]);
                i = j.min(b.len());
                continue;
            }
        }
        // Plain or byte string.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"') && !prev_is_ident(b, i)) {
            let mut j = if c == b'b' { i + 2 } else { i + 1 };
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            blank(&mut out, &b[i..j.min(b.len())]);
            i = j.min(b.len());
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let j = match b.get(i + 1) {
                // Escape: the escaped character is at i + 2 (a quote or a
                // backslash too); scan past it to the closing quote.
                Some(b'\\') => {
                    let mut j = i + 3;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    Some((j + 1).min(b.len()))
                }
                // 'x' with an immediate closing quote is a char literal;
                // anything else ('a in <'a>, 'static) is a lifetime.
                Some(_) if b.get(i + 2) == Some(&b'\'') => Some(i + 3),
                _ => None,
            };
            if let Some(j) = j {
                blank(&mut out, &b[i..j]);
                i = j;
                continue;
            }
            // Lifetime: keep the quote, move on.
            out.push(c);
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Erases the bodies of `#[cfg(test)]` items and `#[test]` functions from
/// *scrubbed* source (brace matching is only safe once strings are gone).
/// Newlines are preserved so line numbers keep meaning.
pub fn blank_tests(scrubbed: &str) -> String {
    let mut s = scrubbed.as_bytes().to_vec();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(rel) = find_sub(&s, from, marker.as_bytes()) {
            let attr = rel;
            // Walk past this attribute and any that follow to the item's
            // opening brace, or to the `;` of an item without a body.
            let mut j = attr + marker.len();
            let mut has_body = false;
            while j < s.len() {
                match s[j] {
                    b'{' => {
                        has_body = true;
                        break;
                    }
                    // `#[cfg(test)] mod t;`: the item ends at its `;`.
                    b';' => break,
                    _ => j += 1,
                }
            }
            let mut depth = 0;
            let mut k = j;
            while has_body && k < s.len() {
                match s[k] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = k.min(s.len() - 1);
            for c in &mut s[attr..=end] {
                if *c != b'\n' {
                    *c = b' ';
                }
            }
            from = end + 1;
        }
    }
    String::from_utf8_lossy(&s).into_owned()
}

fn memchr(b: &[u8], from: usize, needle: u8) -> Option<usize> {
    b[from..].iter().position(|&c| c == needle).map(|p| from + p)
}

fn find_sub(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| from + p)
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // .unwrap() here\nlet y = 1; /* panic! */";
        let s = scrub(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert!(s.contains("let x ="));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let src = "let r = r#\"panic!(\"no\")\"#; let c = '\\''; let l: &'static str;";
        let s = scrub(src);
        assert!(!s.contains("panic"));
        assert!(s.contains("'static"));
    }

    #[test]
    fn scrub_ends_an_escaped_backslash_char_at_its_quote() {
        let s = scrub("let a = b'\\\\'; let q = '\\''; x.unwrap(); let s = \"panic!\";");
        assert!(s.contains("x.unwrap();"), "{s}");
        assert!(!s.contains("panic"), "{s}");
    }

    #[test]
    fn scrub_keeps_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
    }

    #[test]
    fn scrub_nested_block_comment() {
        let s = scrub("a /* x /* unwrap() */ y */ b");
        assert!(!s.contains("unwrap"));
        assert!(s.starts_with("a "));
        assert!(s.ends_with(" b"));
    }

    #[test]
    fn blank_tests_erases_test_mod_bodies() {
        let src = "fn core() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n    fn h() { y.unwrap(); }\n}\n";
        let out = blank_tests(&scrub(src));
        assert_eq!(out.matches(".unwrap(").count(), 1);
        assert_eq!(out.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn blank_tests_erases_test_fns() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn core() {}\n";
        let out = blank_tests(&scrub(src));
        assert!(!out.contains("unwrap"));
        assert!(out.contains("fn core"));
    }
}
