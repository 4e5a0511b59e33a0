//! A serverless web application (§3.1, Web Applications).
//!
//! "The data corresponding to the web content (e.g., HTML, CSS, etc.) and
//! any additional database would be stored on a serverless data store. The
//! processing … is handled entirely in an event-driven fashion, where some
//! interactive element … leads to a serverless function being executed."
//!
//! Static assets live in Jiffy file objects; dynamic routes are FaaS
//! functions (page-view counter, session store, guestbook). [`WebApp`]
//! plays the API-gateway role: route → static read or function invocation.

use taureau_faas::{FaasError, FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;

/// An HTTP-ish response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub(crate) status: u16,
    /// Body bytes (refcounted: static-file and function-output responses
    /// share storage with the underlying KV block / handler buffer).
    pub(crate) body: bytes::Bytes,
}

impl Response {
    fn ok(body: impl Into<bytes::Bytes>) -> Self {
        Self {
            status: 200,
            body: body.into(),
        }
    }

    fn not_found() -> Self {
        Self {
            status: 404,
            body: bytes::Bytes::from_static(b"not found"),
        }
    }

    /// Body as UTF-8 (convenience).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The deployed web application.
pub struct WebApp {
    platform: FaasPlatform,
    jiffy: Jiffy,
}

impl WebApp {
    /// Deploy static assets and dynamic handler functions.
    pub fn deploy(platform: &FaasPlatform, jiffy: &Jiffy) -> Self {
        // Static content in the serverless store.
        for (path, content) in [
            ("index.html", "<html><body>Le Taureau demo</body></html>"),
            ("style.css", "body { font-family: serif; }"),
        ] {
            let f = jiffy
                .create_file(format!("/webapp/static/{path}").as_str())
                .expect("stage static asset");
            f.append(content.as_bytes()).expect("write asset");
        }

        // Page-view counter (the canonical serverless hello-world).
        let store = jiffy.clone();
        platform
            .register(FunctionSpec::new("web-views", "webapp", move |ctx| {
                let page = ctx.payload_str().ok_or("bad page name")?;
                let kv = store
                    .open_kv("/webapp/state")
                    .or_else(|_| store.create_kv("/webapp/state", 2))
                    .map_err(|e| e.to_string())?;
                let key = format!("views:{page}");
                let n = kv
                    .get(key.as_bytes())
                    .map_err(|e| e.to_string())?
                    .map(|b| u64::from_le_bytes(b[..].try_into().expect("8 bytes")))
                    .unwrap_or(0)
                    + 1;
                kv.put(key.as_bytes(), &n.to_le_bytes())
                    .map_err(|e| e.to_string())?;
                Ok(n.to_string().into_bytes())
            }))
            .expect("register web-views");

        // Guestbook: POST appends, GET lists.
        let store = jiffy.clone();
        platform
            .register(FunctionSpec::new("web-guestbook", "webapp", move |ctx| {
                let q = store
                    .open_queue("/webapp/guestbook")
                    .or_else(|_| store.create_queue("/webapp/guestbook"))
                    .map_err(|e| e.to_string())?;
                if ctx.payload.is_empty() {
                    // GET: drain-and-requeue to list non-destructively.
                    let mut entries = Vec::new();
                    while let Ok(Some(e)) = q.pop() {
                        entries.push(e);
                    }
                    let mut body = Vec::new();
                    for e in &entries {
                        q.push(e).map_err(|e| e.to_string())?;
                        body.extend_from_slice(e);
                        body.push(b'\n');
                    }
                    Ok(body)
                } else {
                    q.push(&ctx.payload).map_err(|e| e.to_string())?;
                    Ok(b"posted".to_vec())
                }
            }))
            .expect("register web-guestbook");

        // Session store: payload "sid set value" / "sid get".
        let store = jiffy.clone();
        platform
            .register(FunctionSpec::new("web-session", "webapp", move |ctx| {
                let text = ctx.payload_str().ok_or("bad request")?;
                let mut parts = text.splitn(3, ' ');
                let sid = parts.next().ok_or("missing session")?;
                let op = parts.next().ok_or("missing op")?;
                let kv = store
                    .open_kv("/webapp/sessions")
                    .or_else(|_| store.create_kv("/webapp/sessions", 2))
                    .map_err(|e| e.to_string())?;
                match op {
                    "set" => {
                        let value = parts.next().ok_or("missing value")?;
                        kv.put(sid.as_bytes(), value.as_bytes())
                            .map_err(|e| e.to_string())?;
                        Ok(b"ok".to_vec())
                    }
                    "get" => Ok(kv
                        .get(sid.as_bytes())
                        .map_err(|e| e.to_string())?
                        .map(|b| b.to_vec())
                        .unwrap_or_default()),
                    _ => Err(format!("unknown op {op}")),
                }
            }))
            .expect("register web-session");

        Self {
            platform: platform.clone(),
            jiffy: jiffy.clone(),
        }
    }

    /// GET a path: `/static/*` reads the store directly (no function —
    /// BaaS serving); `/api/*` invokes the matching function.
    pub fn get(&self, path: &str) -> Response {
        if let Some(asset) = path.strip_prefix("/static/") {
            return match self
                .jiffy
                .open_file(format!("/webapp/static/{asset}").as_str())
                .and_then(|f| f.contents())
            {
                Ok(bytes) => Response::ok(bytes),
                Err(_) => Response::not_found(),
            };
        }
        match path {
            p if p.starts_with("/api/views/") => {
                let page = &p["/api/views/".len()..];
                self.invoke("web-views", page.as_bytes())
            }
            "/api/guestbook" => self.invoke("web-guestbook", &[]),
            _ => Response::not_found(),
        }
    }

    /// POST a path with a body.
    pub fn post(&self, path: &str, body: &[u8]) -> Response {
        match path {
            "/api/guestbook" => self.invoke("web-guestbook", body),
            "/api/session" => self.invoke("web-session", body),
            _ => Response::not_found(),
        }
    }

    fn invoke(&self, function: &str, payload: &[u8]) -> Response {
        match self.platform.invoke(function, payload.to_vec()) {
            Ok(r) => Response::ok(r.output),
            Err(FaasError::FunctionNotFound(_)) => Response::not_found(),
            Err(e) => Response {
                status: 500,
                body: bytes::Bytes::from(e.to_string().into_bytes()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn app() -> WebApp {
        let clock = VirtualClock::shared();
        let platform = FaasPlatform::new(PlatformConfig::deterministic(), clock.clone());
        let jiffy = Jiffy::new(JiffyConfig::default(), clock);
        WebApp::deploy(&platform, &jiffy)
    }

    #[test]
    fn static_assets_served_from_store() {
        let a = app();
        let r = a.get("/static/index.html");
        assert_eq!(r.status, 200);
        assert!(r.text().contains("Le Taureau"));
        assert_eq!(a.get("/static/missing.js").status, 404);
    }

    #[test]
    fn static_serving_bills_no_function() {
        let a = app();
        a.get("/static/index.html");
        a.get("/static/style.css");
        assert_eq!(a.platform.billing().invocations("webapp"), 0);
    }

    #[test]
    fn view_counter_increments_per_hit() {
        let a = app();
        assert_eq!(a.get("/api/views/home").text(), "1");
        assert_eq!(a.get("/api/views/home").text(), "2");
        assert_eq!(a.get("/api/views/about").text(), "1");
        assert_eq!(a.get("/api/views/home").text(), "3");
    }

    #[test]
    fn guestbook_posts_and_lists() {
        let a = app();
        assert_eq!(a.post("/api/guestbook", b"hello").text(), "posted");
        assert_eq!(a.post("/api/guestbook", b"world").text(), "posted");
        let list = a.get("/api/guestbook");
        assert_eq!(list.text(), "hello\nworld\n");
        // Listing twice is non-destructive.
        assert_eq!(a.get("/api/guestbook").text(), "hello\nworld\n");
    }

    #[test]
    fn sessions_are_isolated_per_id() {
        let a = app();
        a.post("/api/session", b"alice set cart=3");
        a.post("/api/session", b"bob set cart=7");
        assert_eq!(a.post("/api/session", b"alice get").text(), "cart=3");
        assert_eq!(a.post("/api/session", b"bob get").text(), "cart=7");
        assert_eq!(a.post("/api/session", b"carol get").text(), "");
    }

    #[test]
    fn unknown_routes_404() {
        let a = app();
        assert_eq!(a.get("/nope").status, 404);
        assert_eq!(a.post("/nope", b"x").status, 404);
    }

    #[test]
    fn dynamic_routes_are_billed_per_invocation() {
        let a = app();
        for _ in 0..4 {
            a.get("/api/views/home");
        }
        assert_eq!(a.platform.billing().invocations("webapp"), 4);
    }
}
